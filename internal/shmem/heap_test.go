//go:build !race

package shmem

// testHeapBytes sizes the test worlds' symmetric heaps: 0, the default.
const testHeapBytes = 0
