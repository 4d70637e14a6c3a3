package bench

import "sync"

// The figure runners are embarrassingly parallel: every sweep point
// builds its own simulation world with its own engine and virtual
// clock, so points can run on concurrent goroutines without sharing
// any mutable simulation state. Results are always merged by index,
// which keeps figures byte-identical at any parallelism setting.

var (
	parMu  sync.Mutex
	parSem chan struct{} // nil = serial
)

// SetParallelism sets the global concurrency budget for figure sweeps
// (the -parallel flag of cmd/ddtbench). n <= 1 restores fully serial
// execution. Do not change it while sweeps are running.
func SetParallelism(n int) {
	parMu.Lock()
	defer parMu.Unlock()
	if n <= 1 {
		parSem = nil
		return
	}
	parSem = make(chan struct{}, n)
}

func sem() chan struct{} {
	parMu.Lock()
	defer parMu.Unlock()
	return parSem
}

// pmap computes out[i] = f(i) for i in [0, n), running tasks
// concurrently up to the configured budget. A task that cannot get a
// slot runs inline on the calling goroutine, which bounds total
// concurrency across nesting levels (a parallel figure runner whose
// sweep also calls pmap) and makes nested use deadlock-free.
func pmap[T any](n int, f func(i int) T) []T {
	out := make([]T, n)
	s := sem()
	if s == nil || n <= 1 {
		for i := 0; i < n; i++ {
			out[i] = f(i)
		}
		return out
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case s <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-s }()
				out[i] = f(i)
			}(i)
		default:
			out[i] = f(i)
		}
	}
	wg.Wait()
	return out
}
