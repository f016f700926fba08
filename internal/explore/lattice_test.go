package explore

import "testing"

// TestLatticeCellAllocs pins the per-cell construction cost of a
// compiled template over lattice24. Expanding the template and
// building every cell's machine from its spec cost 262 allocations
// per cell; a compiled cell takes 12 (the machine, its compiled form,
// two unit-count maps, the name, the choice map, the unit instances
// and the pipe half of the cost table), bounded here at 16.
func TestLatticeCellAllocs(t *testing.T) {
	lat, err := lattice24().Compile()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < lat.Len(); i++ {
		lat.Cell(i) // the first cell builds the shared op tuple
	}
	perCell := testing.AllocsPerRun(20, func() {
		for i := 0; i < lat.Len(); i++ {
			lat.Cell(i)
		}
	}) / float64(lat.Len())
	if perCell > 16 {
		t.Errorf("%.1f allocations per lattice cell, want at most 16", perCell)
	}
}
