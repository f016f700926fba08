package source

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// robustBase is the program TestQuickParseNeverPanics mutates.
const robustBase = `
program p
  integer i, n
  parameter (n = 10)
  real a(10), x
  do i = 1, n
    if (i .le. 5) then
      a(i) = x * 2.0 + real(i)
    else
      a(i) = sqrt(x)
    end if
  end do
end
`

// mutateBytes overwrites, deletes or duplicates a handful of random
// bytes of robustBase.
func mutateBytes(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	b := []byte(robustBase)
	for k := 0; k < 1+rng.Intn(8); k++ {
		pos := rng.Intn(len(b))
		switch rng.Intn(3) {
		case 0:
			b[pos] = byte(rng.Intn(128))
		case 1: // delete
			b = append(b[:pos], b[pos+1:]...)
		default: // duplicate
			b = append(b[:pos], append([]byte{b[pos]}, b[pos:]...)...)
		}
		if len(b) == 0 {
			b = []byte("x")
		}
	}
	return string(b)
}

// The parser must never panic, whatever bytes it is fed: errors only.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("parser panicked: %v", r)
				ok = false
			}
		}()
		_, _ = Parse(mutateBytes(seed)) // error or success, never panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// fragmentSoup returns n random splices of token-ish fragments.
func fragmentSoup(n int) []string {
	frags := []string{
		"do i = 1, n", "end do", "if (", ") then", "else", "end if",
		"a(i)", "= 1.0", "**", ".le.", "call f(", "program p", "end",
		"integer", "real", "parameter (", "1e9", ".5", "&\n", "!hpf$ distribute a(block)",
		"mod(i, 2)", ";", "-", "x", "\n",
	}
	rng := rand.New(rand.NewSource(42))
	out := make([]string, n)
	for trial := range out {
		var b strings.Builder
		k := 1 + rng.Intn(20)
		for i := 0; i < k; i++ {
			b.WriteString(frags[rng.Intn(len(frags))])
			b.WriteByte(' ')
		}
		out[trial] = b.String()
	}
	return out
}

// Random splices of token-ish fragments must not panic either.
func TestParseFragmentSoup(t *testing.T) {
	for _, src := range fragmentSoup(500) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

// roundTripPrograms returns n random kernel-shaped programs.
func roundTripPrograms(n int) []string {
	rng := rand.New(rand.NewSource(7))
	out := make([]string, n)
	for trial := range out {
		var b strings.Builder
		b.WriteString("program g\n integer i, j, n\n parameter (n = 16)\n real a(16,16), x\n")
		stmts := 1 + rng.Intn(4)
		for s := 0; s < stmts; s++ {
			switch rng.Intn(3) {
			case 0:
				b.WriteString(" x = x * 2.0 + 1.0\n")
			case 1:
				b.WriteString(" do i = 1, n\n  a(i,1) = x + real(i)\n end do\n")
			default:
				b.WriteString(" if (x .gt. 0.0) then\n  x = x - 1.0\n else\n  x = x + 1.0\n end if\n")
			}
		}
		b.WriteString("end\n")
		out[trial] = b.String()
	}
	return out
}

// Every kernel-shaped program that parses must round-trip through the
// printer to an equivalent AST.
func TestQuickPrintRoundTrip(t *testing.T) {
	for _, src := range roundTripPrograms(100) {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("generated program failed to parse: %v\n%s", err, src)
		}
		printed := PrintProgram(p1)
		p2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed program failed to re-parse: %v\n%s", err, printed)
		}
		if PrintProgram(p2) != printed {
			t.Fatalf("round trip unstable:\n%s\nvs\n%s", printed, PrintProgram(p2))
		}
	}
}
