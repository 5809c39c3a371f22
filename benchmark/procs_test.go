package main

import "testing"

func TestParseStatCPUSurvivesOddCommandNames(t *testing.T) {
	// Field 2 is "(comm)" and may itself hold spaces and parentheses.
	line := []byte("4242 (giantd (x) y) S 1 4242 4242 0 -1 4194560 1200 0 0 0 150 50 0 0 20 0 9 0 1000 1 2 3\n")
	ms, err := parseStatCPUMs(line)
	if err != nil {
		t.Fatal(err)
	}
	if ms != 2000 { // (150 + 50) ticks at 100 Hz
		t.Fatalf("cpu = %g ms, want 2000", ms)
	}
	if _, err := parseStatCPUMs([]byte("garbage")); err == nil {
		t.Fatal("garbage parsed")
	}
}

func TestParseVmHWM(t *testing.T) {
	mb, err := parseVmHWMMB([]byte("Name:\tgiantd\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n"))
	if err != nil {
		t.Fatal(err)
	}
	if mb != 20 {
		t.Fatalf("VmHWM = %g MB, want 20", mb)
	}
	if _, err := parseVmHWMMB([]byte("Name:\tx\n")); err == nil {
		t.Fatal("missing VmHWM parsed")
	}
}
