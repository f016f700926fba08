// Package source implements the F-lite front end: a lexer, parser and
// AST for the Fortran-90-like kernel language the predictor consumes.
// F-lite covers the constructs the paper's framework prices: DO loops
// with symbolic bounds, IF/THEN/ELSE, multi-dimensional REAL/INTEGER
// arrays, arithmetic with exponentiation, intrinsic calls, CALL
// statements, PARAMETER constants, and `!hpf$ distribute` directives
// for the communication cost model.
package source

import "fmt"

// TokKind enumerates token kinds.
type TokKind int

const (
	TokEOF TokKind = iota
	TokNewline
	TokIdent
	TokInt
	TokReal
	TokString

	// Punctuation / operators.
	TokLParen
	TokRParen
	TokComma
	TokAssign // =
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPower // **
	TokColon

	// Relational (.lt. or < forms normalize to these).
	TokLT
	TokLE
	TokGT
	TokGE
	TokEQ
	TokNE

	// Logical.
	TokAnd
	TokOr
	TokNot

	// Keywords.
	TokProgram
	TokSubroutine
	TokFunction
	TokEnd
	TokDo
	TokEndDo
	TokIf
	TokThen
	TokElse
	TokElseIf
	TokEndIf
	TokCall
	TokInteger
	TokRealKw
	TokParameter
	TokReturn
	TokContinue

	// Directive: !hpf$ … (lexed as one token carrying the text).
	TokDirective
)

var tokNames = map[TokKind]string{
	TokEOF: "EOF", TokNewline: "newline", TokIdent: "identifier",
	TokInt: "integer literal", TokReal: "real literal", TokString: "string",
	TokLParen: "(", TokRParen: ")", TokComma: ",", TokAssign: "=",
	TokPlus: "+", TokMinus: "-", TokStar: "*", TokSlash: "/",
	TokPower: "**", TokColon: ":",
	TokLT: ".lt.", TokLE: ".le.", TokGT: ".gt.", TokGE: ".ge.",
	TokEQ: ".eq.", TokNE: ".ne.",
	TokAnd: ".and.", TokOr: ".or.", TokNot: ".not.",
	TokProgram: "program", TokSubroutine: "subroutine", TokFunction: "function",
	TokEnd: "end", TokDo: "do", TokEndDo: "enddo",
	TokIf: "if", TokThen: "then", TokElse: "else", TokElseIf: "elseif",
	TokEndIf: "endif", TokCall: "call",
	TokInteger: "integer", TokRealKw: "real", TokParameter: "parameter",
	TokReturn: "return", TokContinue: "continue",
	TokDirective: "directive",
}

func (k TokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("tok(%d)", int(k))
}

// Pos locates a token in the source.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical unit.
type Token struct {
	Kind TokKind
	Text string // identifier name (lower-cased), literal text, directive body
	Pos  Pos
}

var keywords = map[string]TokKind{
	"program": TokProgram, "subroutine": TokSubroutine, "function": TokFunction,
	"end": TokEnd, "do": TokDo, "enddo": TokEndDo,
	"if": TokIf, "then": TokThen, "else": TokElse,
	"elseif": TokElseIf, "endif": TokEndIf,
	"call": TokCall, "integer": TokInteger, "real": TokRealKw,
	"parameter": TokParameter, "return": TokReturn, "continue": TokContinue,
}

// dotOps maps a dotted operator's lower-cased name to its kind and its
// token text, so lexing one builds no string.
var dotOps = map[string]struct {
	kind TokKind
	text string
}{
	"lt": {TokLT, ".lt."}, "le": {TokLE, ".le."}, "gt": {TokGT, ".gt."},
	"ge": {TokGE, ".ge."}, "eq": {TokEQ, ".eq."}, "ne": {TokNE, ".ne."},
	"and": {TokAnd, ".and."}, "or": {TokOr, ".or."}, "not": {TokNot, ".not."},
}
