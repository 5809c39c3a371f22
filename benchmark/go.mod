// The benchmark is a module of its own so that nothing outside this
// directory has to change to build it; the replace directive points at the
// repository it measures, whose internal packages it may import because its
// module path lives under "giant/".
module giant/benchmark

go 1.23

require giant v0.0.0

replace giant => ../
