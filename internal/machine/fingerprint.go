package machine

import (
	"slices"
	"sort"

	"perfpredict/internal/ir"
	"perfpredict/internal/source"
)

// Fingerprint returns a 128-bit content hash of the machine
// description: unit inventory, dispatch width, feature flags, and the
// complete atomic-operation cost table, all in canonical order. Two
// machines hash equal iff they describe the same target — regardless of
// how they were constructed (hand-coded, spec-loaded, or mutated) and
// of where they live in memory.
//
// The fingerprint is the machine's identity everywhere costs are
// memoized: the straight-line segment cache, the nest-level cost cache
// (package aggregate) and the server's result cache mix it into their
// keys. Keying on content rather than name or pointer
// means two targets that share a name but differ in even one segment
// can never alias each other's cache entries, while content-identical
// machines built by separate registry lookups share freely.
//
// The hash is the two-lane FNV scheme of source.Fingerprint; the
// "machine/v1" tag domain-separates it from AST fingerprints. A sealed
// machine returns the fingerprint of its compiled form, computed once
// at construction.
func (m *Machine) Fingerprint() source.Fingerprint {
	if m.c != nil {
		return m.c.fp
	}
	return fingerprint(m)
}

// fingerprint hashes m's fields.
func fingerprint(m *Machine) source.Fingerprint {
	fp := source.Fingerprint{}.MixString("machine/v1").MixString(m.Name)
	fp = fp.MixUint64(uint64(m.DispatchWidth))
	var flags uint64
	if m.HasFMA {
		flags = 1
	}
	fp = fp.MixUint64(flags)
	fp = fp.MixUint64(uint64(int64(m.LoadsPerStore)))
	fp = fp.MixUint64(uint64(int64(m.BranchCost)))

	// The memory hierarchy is mixed only when declared, so machines
	// without one keep their historical fingerprints (and their warm
	// cache entries), while two machines that differ only in the
	// hierarchy can never alias.
	if h := m.Memory; h != nil {
		fp = fp.MixString("memory/v1").MixUint64(uint64(int64(h.ElemBytes)))
		fp = fp.MixUint64(uint64(len(h.Levels)))
		for _, l := range h.Levels {
			fp = fp.MixString(l.Name).
				MixUint64(uint64(l.SizeBytes)).
				MixUint64(uint64(l.LineBytes)).
				MixUint64(uint64(int64(l.Assoc))).
				MixUint64(uint64(l.MissPenalty))
		}
		if t := h.TLB; t != nil {
			fp = fp.MixString("tlb").
				MixUint64(uint64(t.PageBytes)).
				MixUint64(uint64(t.Entries)).
				MixUint64(uint64(int64(t.Assoc))).
				MixUint64(uint64(t.MissPenalty))
		}
	}

	// Unit kinds sort into a stack buffer: a machine has a handful.
	var kbuf [8]string
	kinds := kbuf[:0]
	for k := range m.UnitCounts {
		kinds = append(kinds, string(k))
	}
	slices.Sort(kinds)
	fp = fp.MixUint64(uint64(len(kinds)))
	for _, k := range kinds {
		fp = fp.MixString(k).MixUint64(uint64(int64(m.UnitCounts[UnitKind(k)])))
	}

	fp = fp.MixUint64(uint64(len(m.Table)))
	if out, ok := mixTableByOpName(fp, m.Table); ok {
		return out
	}
	return mixTableSorted(fp, m.Table)
}

// opsByName is every valid opcode in ascending mnemonic order — the
// canonical order the cost table is hashed in, fixed once at init.
var opsByName = func() []ir.Op {
	ops := ir.AllOps()
	sort.Slice(ops, func(i, j int) bool { return ops[i].String() < ops[j].String() })
	return ops
}()

// mixTableByOpName hashes the cost table in opsByName order without
// allocating. It reports false when the table holds a key outside
// ir.AllOps; the caller then falls back to mixTableSorted, which
// hashes the same entries in the same order for any key set.
func mixTableByOpName(fp source.Fingerprint, table map[ir.Op][]AtomicOp) (source.Fingerprint, bool) {
	found := 0
	for _, op := range opsByName {
		seq, ok := table[op]
		if !ok {
			continue
		}
		found++
		fp = mixOpEntry(fp, op.String(), seq)
	}
	return fp, found == len(table)
}

// mixTableSorted hashes the cost table in the order of its keys'
// sorted mnemonics, building that order per call.
func mixTableSorted(fp source.Fingerprint, table map[ir.Op][]AtomicOp) source.Fingerprint {
	names := make([]string, 0, len(table))
	byName := make(map[string][]AtomicOp, len(table))
	for op, seq := range table {
		n := op.String()
		names = append(names, n)
		byName[n] = seq
	}
	sort.Strings(names)
	for _, n := range names {
		fp = mixOpEntry(fp, n, byName[n])
	}
	return fp
}

// mixOpEntry folds one cost-table entry: the op mnemonic and its
// atomic-operation sequence with every segment.
func mixOpEntry(fp source.Fingerprint, name string, seq []AtomicOp) source.Fingerprint {
	fp = fp.MixString(name).MixUint64(uint64(len(seq)))
	for _, a := range seq {
		fp = fp.MixString(a.Name).MixUint64(uint64(len(a.Segments)))
		for _, s := range a.Segments {
			fp = fp.MixString(string(s.Unit)).
				MixUint64(uint64(int64(s.Start))).
				MixUint64(uint64(int64(s.Noncov))).
				MixUint64(uint64(int64(s.Cov)))
		}
	}
	return fp
}
