package ipm

import "bytes"

// This file is the streaming fast path of profile ingest: a zero-copy
// byte lexer over the raw XML that feeds the reading rules (read.go)
// without building a DOM and without the per-token boxing of
// encoding/xml.
//
// Correctness contract: on every input for which ScanXMLTolerant
// reports ok=true, its sink events, warnings, truncation flag, task
// counts and error are EXACTLY those of DecodeXMLTolerant over the same
// bytes. The two lexers share the rules, so the scanner earns that
// guarantee by lexing only the clean core grammar, where its tokens are
// encoding/xml's, and bailing out (ok=false, the caller re-reads with
// DecodeXMLTolerant) on anything where the non-strict decoder behaves
// in a way this lexer does not replicate bit-for-bit:
//
//   - any '&' (entity expansion) or byte outside printable ASCII +
//     \t\n\r anywhere in the document;
//   - truncation: EOF inside a tag or with elements still open (the
//     decoder's error text is embedded in the salvage warning);
//   - mismatched end tags (the non-strict decoder renames them — a
//     different event stream);
//   - unquoted or valueless attributes, '<' or '\r' inside attribute
//     values ('\r' is normalized to '\n' by the decoder);
//   - ':' in names (namespace resolution), names not matching
//     [A-Za-z_][A-Za-z0-9_.-]*;
//   - "<!" constructs (comments error on inner "--" even non-strict,
//     directives are rare) and "]]>" in character data (always an
//     error);
//   - "<?xml ...?>" processing instructions that mention a non-UTF-8
//     encoding (the decoder errors on those anywhere in the document).
//
// Everything else the decoder tolerates is lexed identically here:
// multiple roots, stray top-level text, duplicate attributes (last
// wins), whitespace around '=', '\t'/'\n' inside attribute values,
// self-closing tags and unknown elements.

// ScanXMLTolerant streams data into sink. ok=false means the input
// strayed off the fast-path grammar: nothing about the partial event
// stream or rep should be trusted, and the caller must reset both and
// fall back to DecodeXMLTolerant. With ok=true, the events, rep and err
// are DecodeXMLTolerant's (err is non-nil only when no ipm_log root was
// found).
//
// rep must be zeroed by the caller; its Warnings slice is appended to,
// so a recycled backing array is reused across documents.
func ScanXMLTolerant(data []byte, sink ScanSink, rep *ParseReport) (ok bool, err error) {
	s := scanner{data: data, r: reader{sink: sink, rep: rep}}
	if !s.run() {
		return false, nil
	}
	return true, s.r.finish()
}

// plainByte marks the bytes this lexer reads exactly as encoding/xml
// does: printable ASCII plus tab/LF/CR, minus '&' (entity expansion
// rewrites the text). Any other byte bails.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	t['\t'], t['\n'], t['\r'] = true, true, true
	t['&'] = false
	return
}()

type scanner struct {
	data []byte
	pos  int
	r    reader

	// stack holds the open element names (slices into data), for
	// matching end tags.
	stack [][]byte
}

func (s *scanner) run() bool {
	for s.pos < len(s.data) {
		if c := s.data[s.pos]; c != '<' {
			if !s.text() {
				return false
			}
			continue
		}
		if s.pos+1 >= len(s.data) {
			return false // EOF mid-tag: decoder syntax error
		}
		switch s.data[s.pos+1] {
		case '/':
			if !s.endTag() {
				return false
			}
		case '?':
			if !s.procInst() {
				return false
			}
		case '!':
			return false // comments/directives: off the fast path
		default:
			if !s.startTag() {
				return false
			}
		}
	}
	// Clean EOF is only clean with nothing open.
	return len(s.stack) == 0
}

// text consumes character data up to the next '<'. The decoder accepts
// anything here except the CDATA terminator "]]>"; content is discarded
// (the rules ignore all character data).
func (s *scanner) text() bool {
	seg := s.data[s.pos:]
	end := len(seg)
	for i := 0; i < end; i++ {
		c := seg[i]
		if c == '<' {
			end = i
			break
		}
		if !plainByte[c] || c == ']' && i+2 < len(seg) && seg[i+1] == ']' && seg[i+2] == '>' {
			return false
		}
	}
	s.pos += end
	return true
}

// procInst consumes <?target ...?>. The decoder accepts any PI, but for
// a target of exactly "xml" it errors on a version other than 1.0 and
// on any charset other than UTF-8 — document-wide errors this scanner
// cannot replicate, so those bail.
func (s *scanner) procInst() bool {
	s.pos += 2 // "<?"
	name := s.readName()
	if name == nil {
		return false
	}
	bodyStart := s.pos
	for {
		if s.pos+1 >= len(s.data) {
			return false // EOF inside PI
		}
		if s.data[s.pos] == '?' && s.data[s.pos+1] == '>' {
			break
		}
		if !plainByte[s.data[s.pos]] {
			return false
		}
		s.pos++
	}
	body := s.data[bodyStart:s.pos]
	s.pos += 2
	if string(name) == "xml" {
		// Replicate the decoder's checks; an empty or malformed value
		// (no quote, no closing quote) reads as absent and is accepted.
		if v := piParam(body, "version="); len(v) > 0 && string(v) != "1.0" {
			return false
		}
		if enc := piParam(body, "encoding="); len(enc) > 0 && !equalFoldASCII(enc, "utf-8") {
			return false
		}
	}
	return true
}

// piParam replicates encoding/xml's procInst: the value of the first
// `param` (which ends in '=') that is directly followed by a quote, up
// to the matching quote. Occurrences followed by anything else are
// skipped, as the decoder does; nil when none is quoted or the quote
// never closes.
func piParam(body []byte, param string) []byte {
	n := len(param)
	for i := 0; i+n < len(body); i++ {
		if string(body[i:i+n]) != param {
			continue
		}
		if q := body[i+n]; q == '"' || q == '\'' {
			if j := bytes.IndexByte(body[i+n+1:], q); j >= 0 {
				return body[i+n+1 : i+n+1+j]
			}
			return nil
		}
		i += n // the decoder resumes past the byte after '='
	}
	return nil
}

func equalFoldASCII(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c, d := b[i], s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

// readName consumes an XML name restricted to the fast-path grammar
// [A-Za-z_][A-Za-z0-9_.-]*, returning nil (without advancing past valid
// prefix) if the next byte cannot start a name.
func (s *scanner) readName() []byte {
	start := s.pos
	if s.pos >= len(s.data) || !nameStart(s.data[s.pos]) {
		return nil
	}
	s.pos++
	for s.pos < len(s.data) && nameByte(s.data[s.pos]) {
		s.pos++
	}
	return s.data[start:s.pos]
}

func nameStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func nameByte(c byte) bool {
	return nameStart(c) || ('0' <= c && c <= '9') || c == '.' || c == '-'
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (s *scanner) skipSpace() {
	for s.pos < len(s.data) && isSpace(s.data[s.pos]) {
		s.pos++
	}
}

// endTag consumes </name>, allowing trailing whitespace before '>' as
// the decoder does, and requires it to match the innermost open element
// (the decoder renames a mismatched one — a bail).
func (s *scanner) endTag() bool {
	s.pos += 2 // "</"
	name := s.readName()
	if name == nil {
		return false
	}
	s.skipSpace()
	if s.pos >= len(s.data) || s.data[s.pos] != '>' {
		return false
	}
	s.pos++
	if len(s.stack) == 0 || string(s.stack[len(s.stack)-1]) != string(name) {
		return false
	}
	s.stack = s.stack[:len(s.stack)-1]
	s.r.end(name)
	return true
}

// startTag consumes <name attr="v"...> or <name .../>, feeding the
// rules as it goes.
func (s *scanner) startTag() bool {
	s.pos++ // '<'
	name := s.readName()
	if name == nil {
		return false
	}
	kind := s.r.start(name)

	// Attribute loop. Values must be quoted, free of '<' and '\r', with
	// optional whitespace around '=' — exactly the subset on which the
	// decoder returns the raw bytes unchanged.
	selfClosing := false
	for {
		s.skipSpace()
		if s.pos >= len(s.data) {
			return false
		}
		switch s.data[s.pos] {
		case '>':
			s.pos++
		case '/':
			if s.pos+1 >= len(s.data) || s.data[s.pos+1] != '>' {
				return false
			}
			s.pos += 2
			selfClosing = true
		default:
			aname := s.readName()
			if aname == nil {
				return false
			}
			s.skipSpace()
			if s.pos >= len(s.data) || s.data[s.pos] != '=' {
				return false // valueless attribute: decoder invents a value
			}
			s.pos++
			s.skipSpace()
			if s.pos >= len(s.data) {
				return false
			}
			q := s.data[s.pos]
			if q != '"' && q != '\'' {
				return false // unquoted value
			}
			s.pos++
			vstart := s.pos
			for {
				if s.pos >= len(s.data) {
					return false
				}
				c := s.data[s.pos]
				if c == q {
					break
				}
				if c == '<' || c == '\r' || !plainByte[c] {
					return false
				}
				s.pos++
			}
			val := s.data[vstart:s.pos]
			s.pos++
			if kind != elOther {
				s.r.attr(kind, aname, val)
			}
			continue
		}
		break
	}

	s.r.open(kind)
	if selfClosing {
		s.r.end(name)
	} else {
		s.stack = append(s.stack, name)
	}
	return true
}

// parseInt64 is an allocation-free strconv.ParseInt(s, 10, 64): it
// accepts exactly the valid base-10 int64 strings (sign, digits, range
// checked) and reports ok=false otherwise.
func parseInt64(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
	}
	if i == len(b) {
		return 0, false
	}
	limit := uint64(1)<<63 - 1
	if neg {
		limit = uint64(1) << 63
	}
	var n uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (limit-d)/10 {
			return 0, false // overflow: let strconv produce the error
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true // n == 1<<63 wraps to MinInt64, as intended
	}
	return int64(n), true
}

// float64pow10 are the powers of ten exactly representable in float64.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// parseFloat64 is the exact-representation fast path of
// strconv.ParseFloat(s, 64) (Clinger's algorithm): when the decimal
// mantissa fits in 2^53 and the power of ten is exactly representable,
// one multiply or divide is correctly rounded by IEEE semantics and
// matches strconv bit-for-bit. Everything else — long mantissas, big
// exponents, hex/inf/nan/underscore forms, syntax errors — returns
// ok=false for the strconv slow path.
func parseFloat64(b []byte) (float64, bool) {
	i := 0
	neg := false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	var mantissa uint64
	sawDigit := false
	nd := 0    // significant digits consumed
	exp10 := 0 // decimal exponent adjustment from the fraction part
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			break
		}
		sawDigit = true
		if c == '0' && nd == 0 {
			continue // leading zeros are not significant
		}
		nd++
		if nd > 19 {
			return 0, false // mantissa may not be exact; strconv decides
		}
		mantissa = mantissa*10 + uint64(c-'0')
	}
	if i < len(b) && b[i] == '.' {
		i++
		for ; i < len(b); i++ {
			c := b[i]
			if c < '0' || c > '9' {
				break
			}
			sawDigit = true
			if c == '0' && nd == 0 {
				exp10--
				continue
			}
			nd++
			if nd > 19 {
				return 0, false
			}
			mantissa = mantissa*10 + uint64(c-'0')
			exp10--
		}
	}
	if !sawDigit {
		return 0, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		esign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				esign = -1
			}
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		e := 0
		for ; i < len(b); i++ {
			c := b[i]
			if c < '0' || c > '9' {
				break
			}
			if e < 10000 {
				e = e*10 + int(c-'0')
			}
		}
		exp10 += esign * e
	}
	if i != len(b) {
		return 0, false // trailing garbage (or underscores, hex, inf...)
	}
	if mantissa>>53 != 0 {
		return 0, false // not exactly representable
	}
	f := float64(mantissa)
	switch {
	case exp10 == 0:
	case exp10 > 0 && exp10 <= 15+22:
		// 10^k * small-int is exact for k <= 22; one extra exact
		// scaling step is allowed while the product stays < 1e15.
		if exp10 > 22 {
			f *= float64pow10[exp10-22]
			exp10 = 22
			if f > 1e15 || f < -1e15 {
				return 0, false
			}
		}
		f *= float64pow10[exp10]
	case exp10 < 0 && exp10 >= -22:
		f /= float64pow10[-exp10]
	default:
		return 0, false
	}
	if neg {
		f = -f
	}
	return f, true
}
