package telemetry

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins CPU profiling of the host process and arranges a heap
// profile (the CLIs' -cpuprofile/-memprofile flags; an empty destination
// skips that profile). It returns a stop function that must run before
// every exit — os.Exit skips defers — and is safe to call more than once.
func StartProfiles(cpuDest, memDest string) (func(), error) {
	var cpuFile *os.File
	if cpuDest != "" {
		f, err := os.Create(cpuDest)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memDest != "" {
			f, err := os.Create(memDest)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}
	}, nil
}
