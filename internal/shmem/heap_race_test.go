//go:build race

package shmem

// testHeapBytes sizes the test worlds' symmetric heaps under the race
// detector, whose shadow memory multiplies every heap byte touched: the
// 256 MiB default made this package's tests the race step's largest,
// and 4 MiB holds what any of them puts there.
const testHeapBytes = 4 << 20
