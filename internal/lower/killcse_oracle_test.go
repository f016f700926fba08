package lower

import "strings"

// scanKillCSE is the invalidation the indexed killCSE replaced: a
// linear scan testing every CSE key for a load of the stored address,
// or of any element of its array, as a substring. It is the oracle of
// TestKillCSEMatchesScan.
func scanKillCSE(tr *Translator, addr, base string) {
	needle := "[" + addr + "]"
	baseNeedle := "[" + base + "("
	for k := range tr.cse {
		if strings.Contains(k, needle) || strings.Contains(k, baseNeedle) {
			delete(tr.cse, k)
		}
	}
}

// UseScanKillCSE makes tr invalidate CSE entries with the linear scan.
func UseScanKillCSE(tr *Translator) {
	tr.killOracle = func(addr, base string) { scanKillCSE(tr, addr, base) }
}
