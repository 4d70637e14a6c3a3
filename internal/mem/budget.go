//go:build !race

package mem

// defaultPoolBudget is the slab pool's byte budget (see poolBudget).
const defaultPoolBudget = 6 << 30
