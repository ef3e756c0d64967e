// Package profiling wires the standard pprof profiles behind sss-bench's
// command-line flags (sss-server serves net/http/pprof on its metrics
// listener instead). CPU, mutex-contention and blocking profiles are the
// three views that matter for this codebase's hot-path work: CPU for the
// visibility-index and codec costs, mutex for stripe/shard lock contention,
// block for snapshot-queue and commit-drain waits.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Config names the profile output files; empty fields disable the
// corresponding profile.
type Config struct {
	CPU   string // -cpuprofile
	Mutex string // -mutexprofile
	Block string // -blockprofile
}

// Start enables the requested profiles and returns a stop function that
// writes them out. Mutex and block profiling record every event (fraction/
// rate 1) — precise, with measurable overhead, which is fine for explicit
// profiling runs.
func Start(cfg Config) (stop func() error, err error) {
	var cpuFile *os.File
	if cfg.CPU != "" {
		cpuFile, err = os.Create(cfg.CPU)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			_ = cpuFile.Close()
			return nil, fmt.Errorf("profiling: start cpu: %w", err)
		}
	}
	if cfg.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if cfg.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	return func() error {
		var firstErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if cfg.Mutex != "" {
			if err := writeProfile("mutex", cfg.Mutex); err != nil && firstErr == nil {
				firstErr = err
			}
			runtime.SetMutexProfileFraction(0)
		}
		if cfg.Block != "" {
			if err := writeProfile("block", cfg.Block); err != nil && firstErr == nil {
				firstErr = err
			}
			runtime.SetBlockProfileRate(0)
		}
		return firstErr
	}, nil
}

func writeProfile(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("profiling: unknown profile %q", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	defer func() { _ = f.Close() }()
	if err := p.WriteTo(f, 0); err != nil {
		return fmt.Errorf("profiling: write %s: %w", name, err)
	}
	return nil
}
