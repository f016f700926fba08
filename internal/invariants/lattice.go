package invariants

import (
	"fmt"
	"math"
	"reflect"

	"perfpredict/internal/ir"
	"perfpredict/internal/machine"
)

// LatticeMismatches compares every cell of tpl's compiled lattice with
// the full build of the matching expanded spec, Expand()[i].Spec.Machine(),
// and describes each difference (nil when there is none):
//
//   - Compile fails exactly when Expand does, with the same error text;
//   - the cell's name and choices equal the expanded cell's, and its
//     budget equals BudgetOf bit for bit;
//   - the machines have the same fingerprint, SpecOf, Units, KindPipes,
//     PipeKind and Costs().Lookup of every operation.
func LatticeMismatches(tpl *machine.SpecTemplate) []string {
	var out []string
	fail := func(format string, a ...any) { out = append(out, fmt.Sprintf(format, a...)) }
	cells, expErr := tpl.Expand()
	lat, latErr := tpl.Compile()
	if expErr != nil || latErr != nil {
		if expErr == nil || latErr == nil || expErr.Error() != latErr.Error() {
			fail("Expand error %v, Compile error %v", expErr, latErr)
		}
		return out
	}
	if lat.Len() != len(cells) {
		fail("lattice has %d cells, Expand %d", lat.Len(), len(cells))
		return out
	}
	for i, e := range cells {
		want, err := e.Spec.Machine()
		if err != nil {
			fail("cell %d (%s): full build failed: %v", i, e.Spec.Name, err)
			continue
		}
		got := lat.Cell(i)
		if got.Name != e.Spec.Name {
			fail("cell %d: name %q, Expand %q", i, got.Name, e.Spec.Name)
		}
		if !reflect.DeepEqual(got.Choices, e.Choices) {
			fail("cell %d (%s): choices %v, Expand %v", i, e.Spec.Name, got.Choices, e.Choices)
		}
		if b := tpl.BudgetOf(e.Spec); math.Float64bits(got.Budget) != math.Float64bits(b) {
			fail("cell %d (%s): budget %v, BudgetOf %v", i, e.Spec.Name, got.Budget, b)
		}
		if msg := machineMismatch(got.Machine, want); msg != "" {
			fail("cell %d (%s): %s", i, e.Spec.Name, msg)
		}
	}
	return out
}

// machineMismatch names the first compiled part where got and want
// differ, or returns "".
func machineMismatch(got, want *machine.Machine) string {
	if got.Fingerprint() != want.Fingerprint() {
		return fmt.Sprintf("fingerprint %s, full build %s", got.Fingerprint(), want.Fingerprint())
	}
	if !reflect.DeepEqual(machine.SpecOf(got), machine.SpecOf(want)) {
		return "SpecOf differs from the full build's"
	}
	if !reflect.DeepEqual(got.Units(), want.Units()) {
		return fmt.Sprintf("units %v, full build %v", got.Units(), want.Units())
	}
	gc, wc := got.Compiled().Costs(), want.Compiled().Costs()
	if !reflect.DeepEqual(gc.KindPipes, wc.KindPipes) || !reflect.DeepEqual(gc.PipeKind, wc.PipeKind) {
		return fmt.Sprintf("pipes %v/%v, full build %v/%v", gc.KindPipes, gc.PipeKind, wc.KindPipes, wc.PipeKind)
	}
	for op := ir.Op(0); op <= max(gc.MaxOp(), wc.MaxOp()); op++ {
		if !reflect.DeepEqual(gc.Lookup(op), wc.Lookup(op)) {
			return fmt.Sprintf("costs of %s differ from the full build's", op)
		}
	}
	return ""
}
