package source

import (
	"fmt"
	"strings"
	"unicode"
)

// Lexer turns F-lite source text into tokens. Keywords and identifiers
// are case-insensitive and normalized to lower case. `!hpf$` comments
// become TokDirective tokens; other `!` comments are skipped.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer creates a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) errf(format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", lx.line, lx.col, fmt.Sprintf(format, args...))
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) here() Pos { return Pos{lx.line, lx.col} }

// Next returns the next token: TokNewline separates statements, and
// TokEOF ends the text and repeats on every later call.
func (lx *Lexer) Next() (Token, error) {
	for {
		// Skip spaces, tabs, carriage returns and line continuations
		// ("&" at end of line joins lines).
		for {
			c := lx.peek()
			if c == ' ' || c == '\t' || c == '\r' {
				lx.advance()
				continue
			}
			if c == '&' {
				// Continuation: consume through the newline.
				save := lx.pos
				lx.advance()
				for lx.peek() == ' ' || lx.peek() == '\t' || lx.peek() == '\r' {
					lx.advance()
				}
				if lx.peek() == '\n' {
					lx.advance()
					continue
				}
				lx.pos = save // lone '&' is an error below
			}
			break
		}
		pos := lx.here()
		c := lx.peek()
		switch {
		case c == 0:
			return Token{TokEOF, "", pos}, nil
		case c == '\n':
			lx.advance()
			return Token{TokNewline, "\n", pos}, nil
		case c == ';':
			lx.advance()
			return Token{TokNewline, ";", pos}, nil
		case c == '!':
			// Comment or directive.
			start := lx.pos
			for lx.peek() != '\n' && lx.peek() != 0 {
				lx.advance()
			}
			text := lx.src[start:lx.pos]
			if len(text) >= len("!hpf$") && strings.EqualFold(text[:len("!hpf$")], "!hpf$") {
				return Token{TokDirective, strings.TrimSpace(text[len("!hpf$"):]), pos}, nil
			}
			continue // plain comment: loop for the next token
		case isDigit(c) || (c == '.' && isDigit(lx.peek2())):
			return lx.lexNumber(pos)
		case c == '.':
			return lx.lexDotOp(pos)
		case isIdentStart(c):
			return lx.lexIdent(pos)
		case c == '\'' || c == '"':
			return lx.lexString(pos, c)
		default:
			return lx.lexOperator(pos)
		}
	}
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }
func isIdentPart(c byte) bool  { return c == '_' || isDigit(c) || unicode.IsLetter(rune(c)) }

func (lx *Lexer) lexNumber(pos Pos) (Token, error) {
	start := lx.pos
	isReal := false
	for isDigit(lx.peek()) {
		lx.advance()
	}
	if lx.peek() == '.' && !isDotOpAhead(lx.src[lx.pos:]) {
		isReal = true
		lx.advance()
		for isDigit(lx.peek()) {
			lx.advance()
		}
	}
	if c := lx.peek(); c == 'e' || c == 'E' || c == 'd' || c == 'D' {
		// Exponent must be followed by digits or sign+digits.
		save := lx.pos
		lx.advance()
		if lx.peek() == '+' || lx.peek() == '-' {
			lx.advance()
		}
		if isDigit(lx.peek()) {
			isReal = true
			for isDigit(lx.peek()) {
				lx.advance()
			}
		} else {
			lx.pos = save
		}
	}
	text := lx.src[start:lx.pos]
	kind := TokInt
	if isReal {
		kind = TokReal
		text = strings.Map(func(r rune) rune {
			if r == 'd' || r == 'D' {
				return 'e'
			}
			return r
		}, text)
	}
	return Token{kind, text, pos}, nil
}

// isDotOpAhead reports whether s begins with a dotted operator such as
// ".lt." — disambiguates "1.lt.2" from "1." (real).
func isDotOpAhead(s string) bool {
	if len(s) < 3 || s[0] != '.' {
		return false
	}
	i := 1
	for i < len(s) && s[i] != '.' {
		if !unicode.IsLetter(rune(s[i])) {
			return false
		}
		i++
	}
	if i >= len(s) || i == 1 {
		return false
	}
	_, ok := dotOps[strings.ToLower(s[1:i])]
	return ok
}

func (lx *Lexer) lexDotOp(pos Pos) (Token, error) {
	// .op.
	lx.advance() // '.'
	start := lx.pos
	for unicode.IsLetter(rune(lx.peek())) {
		lx.advance()
	}
	name := strings.ToLower(lx.src[start:lx.pos])
	if lx.peek() != '.' {
		return Token{}, lx.errf("malformed dotted operator .%s", name)
	}
	lx.advance()
	op, ok := dotOps[name]
	if !ok {
		return Token{}, lx.errf("unknown operator .%s.", name)
	}
	return Token{op.kind, op.text, pos}, nil
}

func (lx *Lexer) lexIdent(pos Pos) (Token, error) {
	start := lx.pos
	for isIdentPart(lx.peek()) {
		lx.advance()
	}
	name := strings.ToLower(lx.src[start:lx.pos])
	if k, ok := keywords[name]; ok {
		return Token{k, name, pos}, nil
	}
	return Token{TokIdent, name, pos}, nil
}

func (lx *Lexer) lexString(pos Pos, quote byte) (Token, error) {
	lx.advance()
	start := lx.pos
	for lx.peek() != quote {
		if lx.peek() == 0 || lx.peek() == '\n' {
			return Token{}, lx.errf("unterminated string")
		}
		lx.advance()
	}
	text := lx.src[start:lx.pos]
	lx.advance()
	return Token{TokString, text, pos}, nil
}

func (lx *Lexer) lexOperator(pos Pos) (Token, error) {
	c := lx.advance()
	switch c {
	case '(':
		return Token{TokLParen, "(", pos}, nil
	case ')':
		return Token{TokRParen, ")", pos}, nil
	case ',':
		return Token{TokComma, ",", pos}, nil
	case ':':
		return Token{TokColon, ":", pos}, nil
	case '+':
		return Token{TokPlus, "+", pos}, nil
	case '-':
		return Token{TokMinus, "-", pos}, nil
	case '*':
		if lx.peek() == '*' {
			lx.advance()
			return Token{TokPower, "**", pos}, nil
		}
		return Token{TokStar, "*", pos}, nil
	case '/':
		if lx.peek() == '=' {
			lx.advance()
			return Token{TokNE, "/=", pos}, nil
		}
		return Token{TokSlash, "/", pos}, nil
	case '=':
		if lx.peek() == '=' {
			lx.advance()
			return Token{TokEQ, "==", pos}, nil
		}
		return Token{TokAssign, "=", pos}, nil
	case '<':
		if lx.peek() == '=' {
			lx.advance()
			return Token{TokLE, "<=", pos}, nil
		}
		return Token{TokLT, "<", pos}, nil
	case '>':
		if lx.peek() == '=' {
			lx.advance()
			return Token{TokGE, ">=", pos}, nil
		}
		return Token{TokGT, ">", pos}, nil
	default:
		return Token{}, fmt.Errorf("%s: unexpected character %q", pos, string(rune(c)))
	}
}
