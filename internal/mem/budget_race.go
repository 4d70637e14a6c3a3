//go:build race

package mem

// defaultPoolBudget is the slab pool's byte budget under the race
// detector, whose shadow memory costs several bytes for every byte the
// pool keeps alive and is never handed back: at the 6 GiB of a normal
// build, one test binary's sweeps would park more than the host holds.
const defaultPoolBudget = 256 << 20
