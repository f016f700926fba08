package source

// ParsePeak parses src and reports the deepest nesting the parser
// reached, in MaxNestDepth's units.
func ParsePeak(src string) (int, error) {
	toks, err := Lex(src)
	if err != nil {
		return 0, err
	}
	p := &Parser{toks: toks}
	_, err = p.parseProgram()
	return p.peak, err
}
