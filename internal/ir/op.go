// Package ir defines the basic-operation intermediate representation of
// the instruction-translation module (Wang, PLDI 1994, §2.2). The
// *operation specialization mapping* lowers language-specific
// expressions into these language-independent, type-specific basic
// operations; the architecture-dependent *atomic operation mapping*
// (package machine) then turns each basic operation into costed atomic
// operations.
package ir

import "fmt"

// Op is a basic operation: language independent, type specific.
type Op int16

const (
	OpInvalid Op = iota

	// Integer arithmetic.
	OpIAdd
	OpISub
	OpIMul      // general integer multiply
	OpIMulSmall // multiplier known to fit in [-128, 127] (paper §2.2.1)
	OpIDiv
	OpIMod
	OpINeg
	OpIAbs

	// Floating point (double precision; F-lite REALs are doubles).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFMA // fused multiply-add: d = a*b + c (paper: "multiply-and-adds")
	OpFMS // fused multiply-subtract: d = a*b − c
	OpFNeg
	OpFAbs
	OpFSqrt
	OpFMin
	OpFMax

	// Conversions.
	OpItoF
	OpFtoI

	// Memory.
	OpILoad
	OpIStore
	OpFLoad
	OpFStore

	// Address arithmetic is integer arithmetic, but loads/stores in
	// update form (auto-increment addressing on POWER) fold it away;
	// OpAddr marks address computations the back-end imitation may
	// delete.
	OpAddr

	// Control.
	OpICmp   // integer compare, sets condition register
	OpFCmp   // floating compare, sets condition register
	OpBranch // conditional branch on condition register
	OpJump   // unconditional branch
	OpCall   // external call (costed via the library cost table)

	// Constant materialization.
	OpLoadImm

	opEnd
)

// Class groups operations for unit assignment and analysis.
type Class int

const (
	ClassInt Class = iota
	ClassFloat
	ClassMem
	ClassCtl
)

type opInfo struct {
	name        string
	class       Class
	commutative bool
	nSrcs       int
	hasDst      bool
}

var opTable = [opEnd]opInfo{
	OpInvalid:   {"invalid", ClassInt, false, 0, false},
	OpIAdd:      {"iadd", ClassInt, true, 2, true},
	OpISub:      {"isub", ClassInt, false, 2, true},
	OpIMul:      {"imul", ClassInt, true, 2, true},
	OpIMulSmall: {"imuls", ClassInt, true, 2, true},
	OpIDiv:      {"idiv", ClassInt, false, 2, true},
	OpIMod:      {"imod", ClassInt, false, 2, true},
	OpINeg:      {"ineg", ClassInt, false, 1, true},
	OpIAbs:      {"iabs", ClassInt, false, 1, true},
	OpFAdd:      {"fadd", ClassFloat, true, 2, true},
	OpFSub:      {"fsub", ClassFloat, false, 2, true},
	OpFMul:      {"fmul", ClassFloat, true, 2, true},
	OpFDiv:      {"fdiv", ClassFloat, false, 2, true},
	OpFMA:       {"fma", ClassFloat, false, 3, true},
	OpFMS:       {"fms", ClassFloat, false, 3, true},
	OpFNeg:      {"fneg", ClassFloat, false, 1, true},
	OpFAbs:      {"fabs", ClassFloat, false, 1, true},
	OpFSqrt:     {"fsqrt", ClassFloat, false, 1, true},
	OpFMin:      {"fmin", ClassFloat, true, 2, true},
	OpFMax:      {"fmax", ClassFloat, true, 2, true},
	OpItoF:      {"itof", ClassFloat, false, 1, true},
	OpFtoI:      {"ftoi", ClassFloat, false, 1, true},
	OpILoad:     {"iload", ClassMem, false, 0, true},
	OpIStore:    {"istore", ClassMem, false, 1, false},
	OpFLoad:     {"fload", ClassMem, false, 0, true},
	OpFStore:    {"fstore", ClassMem, false, 1, false},
	OpAddr:      {"addr", ClassInt, false, 2, true},
	OpICmp:      {"icmp", ClassCtl, false, 2, true},
	OpFCmp:      {"fcmp", ClassCtl, false, 2, true},
	OpBranch:    {"branch", ClassCtl, false, 1, false},
	OpJump:      {"jump", ClassCtl, false, 0, false},
	OpCall:      {"call", ClassCtl, false, 0, true},
	OpLoadImm:   {"li", ClassInt, false, 0, true},
}

// String returns the mnemonic.
func (op Op) String() string {
	if op < 0 || op >= opEnd {
		return fmt.Sprintf("op(%d)", int(op))
	}
	return opTable[op].name
}

// Class returns the operation class.
func (op Op) Class() Class { return opTable[op].class }

// Commutative reports whether src operands may be exchanged.
func (op Op) Commutative() bool { return opTable[op].commutative }

// NumSrcs returns the number of register sources (memory ops carry the
// address separately).
func (op Op) NumSrcs() int { return opTable[op].nSrcs }

// HasDst reports whether the op defines a register.
func (op Op) HasDst() bool { return opTable[op].hasDst }

// IsLoad / IsStore / IsMem classify memory operations.
func (op Op) IsLoad() bool  { return op == OpILoad || op == OpFLoad }
func (op Op) IsStore() bool { return op == OpIStore || op == OpFStore }
func (op Op) IsMem() bool   { return op.IsLoad() || op.IsStore() }

// IsBranch reports control transfers.
func (op Op) IsBranch() bool { return op == OpBranch || op == OpJump }

// AllOps returns every valid operation, for table-completeness checks.
func AllOps() []Op {
	out := make([]Op, 0, int(opEnd)-1)
	for op := OpInvalid + 1; op < opEnd; op++ {
		out = append(out, op)
	}
	return out
}

// opByName maps mnemonics back to opcodes, for machine descriptions
// expressed as data rather than code.
var opByName = func() map[string]Op {
	m := make(map[string]Op, int(opEnd)-1)
	for op := OpInvalid + 1; op < opEnd; op++ {
		m[opTable[op].name] = op
	}
	return m
}()

// ParseOp resolves a mnemonic (as produced by Op.String) to its
// opcode. It reports false for unknown names and for "invalid".
func ParseOp(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}
