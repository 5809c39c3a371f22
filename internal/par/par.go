// Package par provides the small concurrency primitives the pipeline
// shares: an index-partitioned parallel for-loop and a bounded stage runner.
// Both degrade to plain sequential execution at workers <= 1, so a single
// code path serves the sequential and parallel configurations and their
// outputs stay identical by construction.
package par

import (
	"sync"
	"sync/atomic"
)

// ForEachIndexed invokes fn(i) for every i in [0, n) on up to workers
// goroutines; workers <= 1 runs everything on the calling goroutine in
// order. Work is handed out by an atomic counter, so callers regain a
// deterministic result order by writing into slot i of a preallocated
// slice.
func ForEachIndexed(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RunStages executes the stage functions on at most workers goroutines and
// returns the first error — an errgroup without the external dependency.
// With workers <= 1 the stages run sequentially in order.
func RunStages(workers int, stages ...func() error) error {
	if workers <= 1 {
		for _, s := range stages {
			if err := s(); err != nil {
				return err
			}
		}
		return nil
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for _, s := range stages {
		wg.Add(1)
		go func(s func() error) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := s(); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return first
}
