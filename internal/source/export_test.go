package source

// ParsePeak parses src and reports the deepest nesting the parser
// reached, in MaxNestDepth's units.
func ParsePeak(src string) (int, error) {
	p := newParser(src)
	_, err := p.parse()
	return p.peak, err
}

// SliceParse is the slice-backed reference parser of sliceref_test.go.
var SliceParse = sliceParse

// RobustInputs returns the inputs of robust_test.go: byte mutations of
// robustBase at seeds 0 to 299, the fragment soup and the round-trip
// programs.
func RobustInputs() []string {
	var out []string
	for seed := int64(0); seed < 300; seed++ {
		out = append(out, mutateBytes(seed))
	}
	out = append(out, fragmentSoup(500)...)
	return append(out, roundTripPrograms(100)...)
}
