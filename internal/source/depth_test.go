package source_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"perfpredict/internal/kernels"
	"perfpredict/internal/progen"
	"perfpredict/internal/source"
)

// deepParenProgram is s = ((…(1.0)…)) with levels parentheses.
func deepParenProgram(levels int) string {
	var b strings.Builder
	b.WriteString("program p\n  real s\n  s = ")
	b.WriteString(strings.Repeat("(", levels))
	b.WriteString("1.0")
	b.WriteString(strings.Repeat(")", levels))
	b.WriteString("\nend\n")
	return b.String()
}

const deepChildEnv = "PERFPREDICT_DEEP_PARSE_CHILD"

// TestDeepNestingIsAParseError is the regression test for the input
// that used to kill the process: 500,000 nested parentheses ended in a
// fatal, unrecoverable stack overflow inside parsePrimary. The parse
// runs in a re-executed child so that a regression fails this test
// instead of crashing the test binary; the child must report an
// ordinary parse error, within a time bound.
func TestDeepNestingIsAParseError(t *testing.T) {
	if os.Getenv(deepChildEnv) == "1" {
		_, err := source.Parse(deepParenProgram(500_000))
		if err == nil {
			os.Stdout.WriteString("PARSED\n")
			os.Exit(3)
		}
		os.Stdout.WriteString("PARSE-ERROR: " + err.Error() + "\n")
		os.Exit(0)
	}
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestDeepNestingIsAParseError$")
	cmd.Env = append(os.Environ(), deepChildEnv+"=1")
	start := time.Now()
	out, err := cmd.CombinedOutput()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("child failed (%v) after %s:\n%.2000s", err, elapsed, out)
	}
	if !strings.Contains(string(out), "PARSE-ERROR: ") || !strings.Contains(string(out), "nesting deeper than") {
		t.Fatalf("child did not report the nesting parse error:\n%.2000s", out)
	}
	if elapsed > 20*time.Second {
		t.Errorf("rejecting the deep input took %s, want under 20s", elapsed)
	}
}

// nestCase builds a program that nests one recursing construct n
// levels deep.
type nestCase struct {
	name string
	src  func(n int) string
}

// nestCases returns one nestCase per construct that recurses.
func nestCases() []nestCase {
	wrap := func(body string) string {
		return "program p\n  integer i, n\n  real s\n" + body + "end\n"
	}
	deepDo := func(n int) string {
		return wrap(strings.Repeat("do i = 1, n\n", n) + "s = 1.0\n" + strings.Repeat("end do\n", n))
	}
	deepIf := func(n int) string {
		return wrap(strings.Repeat("if (i .gt. 0) then\n", n) + "s = 1.0\n" + strings.Repeat("end if\n", n))
	}
	deepElseIf := func(n int) string {
		return wrap("if (i .gt. 0) then\ns = 1.0\n" + strings.Repeat("elseif (i .gt. 1) then\ns = 2.0\n", n) + "end if\n")
	}
	expr := func(e string) string { return wrap("s = " + e + "\n") }
	return []nestCase{
		{"parentheses", func(n int) string { return expr(strings.Repeat("(", n) + "1.0" + strings.Repeat(")", n)) }},
		{"unary minus", func(n int) string { return expr(strings.Repeat("-", n) + "1.0") }},
		{"unary plus", func(n int) string { return expr(strings.Repeat("+", n) + "1.0") }},
		{".not.", func(n int) string { return expr(strings.Repeat(".not. ", n) + "(s .gt. 1.0)") }},
		{"** chain", func(n int) string { return expr(strings.Repeat("1.0 ** ", n) + "1.0") }},
		{"nested do", deepDo},
		{"nested if", deepIf},
		{"elseif chain", deepElseIf},
	}
}

// TestNestDepthLimitEachConstruct checks every construct that
// recurses: one level past the limit fails with the nesting error and
// a moderately deep program still parses.
func TestNestDepthLimitEachConstruct(t *testing.T) {
	for _, tc := range nestCases() {
		if _, err := source.Parse(tc.src(source.MaxNestDepth + 1)); err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
			t.Errorf("%s: %d levels gave %v, want the nesting error", tc.name, source.MaxNestDepth+1, err)
		}
		if _, err := source.Parse(tc.src(100)); err != nil {
			t.Errorf("%s: 100 levels rejected: %v", tc.name, err)
		}
	}
}

// TestNestDepthAboveCorpus keeps the limit far above every real
// program: the corpus, the kernels and a spread of generated programs
// must each peak below a tenth of it.
func TestNestDepthAboveCorpus(t *testing.T) {
	deepest, which := 0, ""
	note := func(name, src string) {
		peak, err := source.ParsePeak(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if peak > deepest {
			deepest, which = peak, name
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "programs", "*.f"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		note(filepath.Base(f), string(data))
	}
	for _, k := range kernels.All() {
		note(k.Name, k.Src)
	}
	for seed := int64(0); seed < 200; seed++ {
		r := progen.NewRand(seed)
		note("progen", progen.GenProgram(r, progen.ProgramConfig{AllowIf: true, AllowSubroutine: seed%2 == 0}))
	}
	if deepest*10 > source.MaxNestDepth {
		t.Errorf("%s nests %d levels; MaxNestDepth %d leaves under 10x headroom", which, deepest, source.MaxNestDepth)
	}
	t.Logf("deepest program: %s at %d levels (limit %d)", which, deepest, source.MaxNestDepth)
}
