package ndlog

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind enumerates lexer token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokString
	tokPunct // ( ) , . @ < >
	tokOp    // == != <= >= < > + - * / := && ||
)

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
	toks []token
}

// lex tokenizes NDlog source, stripping // line comments and /* */ block
// comments. It returns an error with line/column context on illegal input.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			l.advance(1)
		case c == '\n':
			l.pos++
			l.line++
			l.col = 1
		case c == '/' && l.peek(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case c == '/' && l.peek(1) == '*':
			l.advance(2)
			for l.pos < len(l.src) && !(l.src[l.pos] == '*' && l.peek(1) == '/') {
				if l.src[l.pos] == '\n' {
					l.pos++
					l.line++
					l.col = 1
				} else {
					l.advance(1)
				}
			}
			if l.pos >= len(l.src) {
				return nil, fmt.Errorf("ndlog: line %d: unterminated block comment", l.line)
			}
			l.advance(2)
		case isIdentStart(rune(c)):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
				l.advance(1)
			}
			l.emit(tokIdent, l.src[start:l.pos])
		case c >= '0' && c <= '9':
			start := l.pos
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.advance(1)
			}
			l.emit(tokInt, l.src[start:l.pos])
		case c == '"':
			// A Go string literal, escapes included: Value.String renders
			// strings that way, so a rendered program lexes back.
			start := l.pos
			l.advance(1)
			for l.pos < len(l.src) && l.src[l.pos] != '"' {
				if l.src[l.pos] == '\n' {
					return nil, fmt.Errorf("ndlog: line %d: unterminated string", l.line)
				}
				if l.src[l.pos] == '\\' {
					l.advance(1) // an escaped quote does not end the literal
				}
				l.advance(1)
			}
			if l.pos >= len(l.src) {
				return nil, fmt.Errorf("ndlog: line %d: unterminated string", l.line)
			}
			l.advance(1)
			s, err := strconv.Unquote(l.src[start:l.pos])
			if err != nil {
				return nil, fmt.Errorf("ndlog: line %d: malformed string %s", l.line, l.src[start:l.pos])
			}
			l.emit(tokString, s)
		default:
			if op, n := l.matchOp(); n > 0 {
				l.emit(tokOp, op)
				l.advance(n)
				continue
			}
			if strings.ContainsRune("(),.@", rune(c)) {
				l.emit(tokPunct, string(c))
				l.advance(1)
				continue
			}
			return nil, fmt.Errorf("ndlog: line %d col %d: unexpected character %q", l.line, l.col, c)
		}
	}
	l.emit(tokEOF, "")
	return l.toks, nil
}

func (l *lexer) peek(n int) byte {
	if l.pos+n < len(l.src) {
		return l.src[l.pos+n]
	}
	return 0
}

func (l *lexer) advance(n int) {
	l.pos += n
	l.col += n
}

func (l *lexer) emit(kind tokKind, text string) {
	l.toks = append(l.toks, token{kind: kind, text: text, line: l.line, col: l.col})
}

// matchOp recognizes multi-character operators at the current position.
// Single < and > are emitted as tokOp too; the parser disambiguates the
// aggregate brackets a_count<X> by context.
func (l *lexer) matchOp() (string, int) {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "==", "!=", "<=", ">=", ":=", ":-", "&&", "||":
		return two, 2
	}
	switch l.src[l.pos] {
	case '+', '-', '*', '/', '<', '>':
		return string(l.src[l.pos]), 1
	}
	return "", 0
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '\''
}
