package source_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"perfpredict/internal/kernels"
	"perfpredict/internal/progen"
	"perfpredict/internal/source"
)

// corpusTexts returns the corpus programs and the kernels, by name.
func corpusTexts(tb testing.TB) (names, texts []string) {
	tb.Helper()
	files, err := filepath.Glob("../../testdata/corpus/programs/*.f")
	if err != nil || len(files) == 0 {
		tb.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		names, texts = append(names, filepath.Base(f)), append(texts, string(src))
	}
	for _, k := range kernels.All() {
		names, texts = append(names, k.Name), append(texts, k.Src)
	}
	return names, texts
}

// parseOutcome is what parse makes of src: the printed program and its
// fingerprint, or the error text.
func parseOutcome(parse func(string) (*source.Program, error), src string) string {
	p, err := parse(src)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%s\n%v", source.PrintProgram(p), source.FingerprintProgram(p))
}

// mutationChars are the bytes mutateText deletes or inserts: each
// starts or ends a token the lexer treats specially.
const mutationChars = ".&'!(*\n"

// mutateText deletes or inserts one of mutationChars at one to three
// positions of src chosen by seed. A deletion removes the first
// occurrence of the byte at or after its position, or inserts it when
// there is none.
func mutateText(src string, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	b := []byte(src)
	for k := 0; k < 1+rng.Intn(3); k++ {
		c := mutationChars[rng.Intn(len(mutationChars))]
		pos := rng.Intn(len(b) + 1)
		if rng.Intn(2) == 0 {
			if i := bytes.IndexByte(b[pos:], c); i >= 0 {
				b = slices.Delete(b, pos+i, pos+i+1)
				continue
			}
		}
		b = slices.Insert(b, pos, c)
	}
	return string(b)
}

// lexErrorTails each end a text with a lexical error, with the message
// the lexer gives for it.
var lexErrorTails = []struct{ text, msg string }{
	{"\n  s = 'unterminated\n", "unterminated string"},
	{"\n  s = 1 .foo. 2\n", "unknown operator .foo."},
	{"\n  s = 1 .lt 2\n", "malformed dotted operator .lt"},
	{"\n  s = 1 @ 2\n", `unexpected character "@"`},
	{"\n  s = 1 & 2\n", `unexpected character "&"`},
}

// TestStreamingParseMatchesSlice holds Parse, which pulls tokens from
// the lexer, to the slice parser it replaced, which lexed the whole
// text first: on every input both give the same program (printed form
// and fingerprint) or byte-identical error text. The inputs are the
// corpus and the kernels, progen seeds 0 to 2999, the inputs of
// robust_test.go and depth_test.go, seeded mutations of the corpus
// texts, and corpus texts with a parse error early and a lexical error
// at the end, where the lexical error must win as it did when the
// lexer ran first.
func TestStreamingParseMatchesSlice(t *testing.T) {
	var names, inputs []string
	add := func(name, src string) { names, inputs = append(names, name), append(inputs, src) }
	cnames, ctexts := corpusTexts(t)
	for i, src := range ctexts {
		add(cnames[i], src)
	}
	for seed := int64(0); seed < 3000; seed++ {
		cfg := progen.ProgramConfig{AllowIf: true, AllowSubroutine: seed%2 == 0}
		add(fmt.Sprintf("progen %d", seed), progen.GenProgram(progen.NewRand(seed), cfg))
	}
	for i, src := range source.RobustInputs() {
		add(fmt.Sprintf("robust input %d", i), src)
	}
	add("500,000 parentheses", deepParenProgram(500_000))
	for _, tc := range nestCases() {
		add(tc.name+" past the limit", tc.src(source.MaxNestDepth+1))
		add(tc.name+" at 100 levels", tc.src(100))
	}
	for i, src := range ctexts {
		for seed := int64(0); seed < 40; seed++ {
			add(fmt.Sprintf("%s mutant %d", cnames[i], seed), mutateText(src, seed))
		}
	}
	failed := 0
	for i, src := range inputs {
		got, want := parseOutcome(source.Parse, src), parseOutcome(source.SliceParse, src)
		if strings.HasPrefix(want, "error: ") {
			failed++
		}
		if got != want {
			t.Errorf("%s: streaming parse gave\n%.400s\nslice parse gave\n%.400s", names[i], got, want)
		}
	}
	t.Logf("%d inputs, %d rejected", len(inputs), failed)
	if failed < len(ctexts)*20 {
		t.Errorf("only %d inputs were rejected; the mutations no longer reach the error paths", failed)
	}

	// A parse error early in the text and a lexical error at its end:
	// the lexical error wins.
	for i, src := range ctexts {
		rng := rand.New(rand.NewSource(int64(i)))
		lines := strings.SplitAfter(src, "\n")
		at := 1 + rng.Intn(len(lines)/2)
		bad := strings.Join(lines[:at], "") + "  = =\n" + strings.Join(lines[at:], "")
		if _, err := source.Parse(bad); err == nil || !strings.Contains(err.Error(), "expected") {
			t.Fatalf("%s: inserting \"= =\" at line %d gave %v, want a parse error", cnames[i], at+1, err)
		}
		tail := lexErrorTails[i%len(lexErrorTails)]
		both := bad + tail.text
		got, want := parseOutcome(source.Parse, both), parseOutcome(source.SliceParse, both)
		if got != want {
			t.Errorf("%s with a parse and a lexical error: streaming parse gave %q, slice parse %q", cnames[i], got, want)
		}
		if !strings.HasSuffix(got, tail.msg) {
			t.Errorf("%s with a parse and a lexical error: got %q, want the lexical error %q", cnames[i], got, tail.msg)
		}
	}
}

// FuzzParse holds Parse to the slice parser on arbitrary text: the
// same program or the same error text, and no panic.
func FuzzParse(f *testing.F) {
	_, texts := corpusTexts(f)
	for _, src := range texts {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if got, want := parseOutcome(source.Parse, src), parseOutcome(source.SliceParse, src); got != want {
			t.Fatalf("streaming parse gave\n%.400s\nslice parse gave\n%.400s", got, want)
		}
	})
}

// allocs runs f once and returns the bytes it allocated.
func allocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParseAllocsPerByte bounds what parsing the corpus allocates per
// source byte. Parsing a materialised token slice read about 72; the
// streaming parser reads about 16.
func TestParseAllocsPerByte(t *testing.T) {
	_, texts := corpusTexts(t)
	srcBytes := 0
	for _, src := range texts {
		srcBytes += len(src)
	}
	n := allocs(func() {
		for _, src := range texts {
			if _, err := source.Parse(src); err != nil {
				t.Fatal(err)
			}
		}
	})
	perByte := float64(n) / float64(srcBytes)
	t.Logf("%d B allocated parsing %d source bytes: %.1f per byte", n, srcBytes, perByte)
	if perByte > 25 {
		t.Errorf("parsing allocates %.1f bytes per source byte, want ≤ 25", perByte)
	}
}

// BenchmarkParseCorpus parses every corpus program and kernel once per
// iteration: the parse layer's own cost.
func BenchmarkParseCorpus(b *testing.B) {
	_, texts := corpusTexts(b)
	srcBytes := 0
	for _, src := range texts {
		srcBytes += len(src)
	}
	b.SetBytes(int64(srcBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range texts {
			if _, err := source.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
