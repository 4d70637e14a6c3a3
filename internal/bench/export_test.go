package bench

// Parallelism returns the current concurrency budget.
func Parallelism() int {
	parMu.Lock()
	defer parMu.Unlock()
	if parSem == nil {
		return 1
	}
	return cap(parSem)
}
