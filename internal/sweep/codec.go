package sweep

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"nsmac/internal/stats"
)

// This file is the shard envelope's wire codec: a reflection-free writer and
// a strict reader for the one fixed schema ShardResult has.
//
// The writer's bytes are exactly encoding/json's MarshalIndent(r, "", "  ")
// plus a newline: the same key order and two-space indentation, `null` for
// a nil slice and `[]` for an empty one, encoding/json's float format and
// its HTML-safe string escaping. Run stores and shard files hold these
// bytes, and resumes and CI byte-diffs compare them, so they must not drift.
//
// The reader accepts what a strict encoding/json decoder (unknown fields and
// trailing data rejected) accepts, decodes it to the same value, and
// rejects what it rejects, with two tightenings: keys match
// case-sensitively ("Trials" is an unknown field, not "trials"), and a key
// repeated within one object is an error rather than last-one-wins.
// FuzzShardResultCodec holds both halves to encoding/json.

// The keys of each envelope object, numbered for the reader's repeated-key
// check.
var (
	envelopeKeys = []string{"fingerprint", "name", "axes", "shard", "shards", "trials", "cells"}
	cellKeys     = []string{"cell", "agg"}
	aggKeys      = []string{"trials", "successes", "rounds", "collisions", "silences", "transmissions", "listens"}
)

// Encode renders the envelope as deterministic indented JSON with a trailing
// newline — the on-disk form `wakeup-bench -shard i/m -out f.json` writes.
// A non-finite round sample is an error, as it is for encoding/json.
func (r *ShardResult) Encode() ([]byte, error) {
	w := envelopeWriter{b: make([]byte, 0, r.encodedSizeHint())}
	w.b = append(w.b, '{')
	w.key(1, "fingerprint")
	w.str(r.Fingerprint)
	w.key(1, "name")
	w.str(r.Name)
	w.key(1, "axes")
	w.strs(1, r.Axes)
	w.key(1, "shard")
	w.int(int64(r.Shard))
	w.key(1, "shards")
	w.int(int64(r.Shards))
	w.key(1, "trials")
	w.int(int64(r.Trials))
	w.key(1, "cells")
	w.list(1, len(r.Cells), r.Cells == nil, func(i int) { w.cell(2, &r.Cells[i]) })
	w.indent(0)
	w.b = append(w.b, '}', '\n')
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// encodedSizeHint over-estimates the encoded size for the usual envelope
// (small integer round samples), so Encode appends into one allocation.
func (r *ShardResult) encodedSizeHint() int {
	n := 160 + len(r.Fingerprint) + len(r.Name)
	for _, a := range r.Axes {
		n += len(a) + 8
	}
	for _, c := range r.Cells {
		n += 240 + 16*len(c.Agg.Rounds)
		for _, l := range c.Cell {
			n += len(l) + 12
		}
	}
	return n
}

// envelopeWriter appends MarshalIndent-shaped JSON to b. The first error
// sticks; later writes still append, and Encode discards the bytes.
type envelopeWriter struct {
	b   []byte
	err error
}

// indent starts a new line at nesting depth d.
func (w *envelopeWriter) indent(d int) {
	w.b = append(w.b, '\n')
	for ; d > 0; d-- {
		w.b = append(w.b, ' ', ' ')
	}
}

// key starts an object member at depth d. Every member but an object's
// first follows a comma, and the first follows the object's '{'.
func (w *envelopeWriter) key(d int, name string) {
	if w.b[len(w.b)-1] != '{' {
		w.b = append(w.b, ',')
	}
	w.indent(d)
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':', ' ')
}

// list writes an array value whose '[' sits at depth d and whose n
// elements elem writes at depth d+1: `null` when the slice is nil, `[]`
// when it is empty.
func (w *envelopeWriter) list(d, n int, null bool, elem func(i int)) {
	switch {
	case null:
		w.b = append(w.b, "null"...)
		return
	case n == 0:
		w.b = append(w.b, '[', ']')
		return
	}
	w.b = append(w.b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.indent(d + 1)
		elem(i)
	}
	w.indent(d)
	w.b = append(w.b, ']')
}

func (w *envelopeWriter) strs(d int, s []string) {
	w.list(d, len(s), s == nil, func(i int) { w.str(s[i]) })
}

func (w *envelopeWriter) cell(d int, c *ShardCell) {
	w.b = append(w.b, '{')
	w.key(d+1, "cell")
	w.strs(d+1, c.Cell)
	w.key(d+1, "agg")
	w.agg(d+1, &c.Agg)
	w.indent(d)
	w.b = append(w.b, '}')
}

func (w *envelopeWriter) agg(d int, a *stats.AggregateWire) {
	w.b = append(w.b, '{')
	w.key(d+1, "trials")
	w.int(int64(a.Trials))
	w.key(d+1, "successes")
	w.int(int64(a.Successes))
	w.key(d+1, "rounds")
	w.list(d+1, len(a.Rounds), a.Rounds == nil, func(i int) { w.float(a.Rounds[i]) })
	w.key(d+1, "collisions")
	w.int(a.Collisions)
	w.key(d+1, "silences")
	w.int(a.Silences)
	w.key(d+1, "transmissions")
	w.int(a.Transmissions)
	w.key(d+1, "listens")
	w.int(a.Listens)
	w.indent(d)
	w.b = append(w.b, '}')
}

func (w *envelopeWriter) int(v int64) {
	w.b = strconv.AppendInt(w.b, v, 10)
}

// float writes f the way encoding/json does: the shortest 'f' form, or the
// 'e' form with a one-digit negative exponent (1e-7, not 1e-07) when
// |f| < 1e-6 or |f| >= 1e21.
func (w *envelopeWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("sweep: cannot encode shard envelope: unsupported value %v", f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// str writes s quoted and escaped as encoding/json does by default: a
// backslash before '"' and '\\', the short control escapes (\n and so on), a
// six-byte hex escape for every other control byte, for '<', '>' and '&', and
// for U+2028 and U+2029, and the escape of U+FFFD for each byte of invalid
// UTF-8.
func (w *envelopeWriter) str(s string) {
	b := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}

// DecodeShardResult decodes one envelope strictly (unknown fields, repeated
// keys and trailing data are errors; keys match case-sensitively) and
// validates its internal consistency, so a truncated, hand-edited or
// partially-written shard file is rejected at the boundary rather than
// poisoning a merge or a resumed run. Fields may come in any order; a
// missing field, or `null`, decodes as the zero value, so envelopes written
// before the `listens` counter still decode.
func DecodeShardResult(data []byte) (*ShardResult, error) {
	r, err := decodeEnvelope(data)
	if err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeEnvelope is DecodeShardResult's parse, without the validation.
func decodeEnvelope(data []byte) (*ShardResult, error) {
	d := envelopeReader{data: data}
	var r ShardResult
	if err := d.envelope(&r); err != nil {
		return nil, err
	}
	d.ws()
	if d.i < len(d.data) {
		return nil, d.errorf("trailing data after shard envelope")
	}
	return &r, nil
}

// envelopeReader is a recursive-descent JSON reader specialized to the
// envelope schema: each method reads one value of the type its field has.
type envelopeReader struct {
	data []byte
	i    int
	// interned holds every string decoded so far: cell labels repeat
	// from cell to cell.
	interned map[string]string
	// strs and floats collect an array's elements, so the decoded slice is
	// allocated once, at its final length. Arrays of either kind never
	// nest.
	strs   []string
	floats []float64
}

func (d *envelopeReader) errorf(format string, args ...any) error {
	return fmt.Errorf("sweep: bad shard file: offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

// ws skips JSON whitespace.
func (d *envelopeReader) ws() {
	i := d.i
	for i < len(d.data) {
		if c := d.data[i]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			break
		}
		i++
	}
	d.i = i
}

// accept consumes c if it is the next byte.
func (d *envelopeReader) accept(c byte) bool {
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// expect skips whitespace and consumes c, or fails.
func (d *envelopeReader) expect(c byte) error {
	d.ws()
	if d.accept(c) {
		return nil
	}
	if d.i == len(d.data) {
		return d.errorf("unexpected end of input, want %q", c)
	}
	return d.errorf("unexpected %q, want %q", d.data[d.i], c)
}

// null skips whitespace and consumes a `null` literal if one is next. A
// null leaves the field it stands for at its zero value, as in
// encoding/json.
func (d *envelopeReader) null() bool {
	d.ws()
	if bytes.HasPrefix(d.data[d.i:], []byte("null")) {
		d.i += 4
		return true
	}
	return false
}

// object reads an object whose keys must come from keys, each at most
// once, and calls member for each with the key's canonical spelling; member
// reads the value.
func (d *envelopeReader) object(keys []string, member func(key string) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	d.ws()
	if d.accept('}') {
		return nil
	}
	var seen uint
	for {
		d.ws()
		name, err := d.quoted()
		if err != nil {
			return err
		}
		k := 0
		for k < len(keys) && string(name) != keys[k] {
			k++
		}
		if k == len(keys) {
			return d.errorf("unknown field %q", name)
		}
		if seen&(1<<k) != 0 {
			return d.errorf("repeated field %q", name)
		}
		seen |= 1 << k
		if err := d.expect(':'); err != nil {
			return err
		}
		if err := member(keys[k]); err != nil {
			return err
		}
		d.ws()
		switch {
		case d.accept(','):
		case d.accept('}'):
			return nil
		case d.i == len(d.data):
			return d.errorf("unterminated object")
		default:
			return d.errorf("unexpected %q after object member", d.data[d.i])
		}
	}
}

// array reads `null` (reporting it) or an array, calling elem to read each
// element.
func (d *envelopeReader) array(elem func() error) (null bool, err error) {
	if d.null() {
		return true, nil
	}
	if err := d.expect('['); err != nil {
		return false, err
	}
	d.ws()
	if d.accept(']') {
		return false, nil
	}
	for {
		if err := elem(); err != nil {
			return false, err
		}
		d.ws()
		switch {
		case d.accept(','):
		case d.accept(']'):
			return false, nil
		case d.i == len(d.data):
			return false, d.errorf("unterminated array")
		default:
			return false, d.errorf("unexpected %q after array element", d.data[d.i])
		}
	}
}

func (d *envelopeReader) envelope(r *ShardResult) error {
	if d.null() {
		return nil
	}
	return d.object(envelopeKeys, func(key string) (err error) {
		switch key {
		case "fingerprint":
			r.Fingerprint, err = d.string()
		case "name":
			r.Name, err = d.string()
		case "axes":
			r.Axes, err = d.strings()
		case "shard":
			r.Shard, err = d.int()
		case "shards":
			r.Shards, err = d.int()
		case "trials":
			r.Trials, err = d.int()
		case "cells":
			cells := []ShardCell{}
			var null bool
			null, err = d.array(func() error {
				cells = append(cells, ShardCell{})
				return d.cell(&cells[len(cells)-1])
			})
			if !null {
				r.Cells = cells
			}
		}
		return err
	})
}

func (d *envelopeReader) cell(c *ShardCell) error {
	if d.null() {
		return nil
	}
	return d.object(cellKeys, func(key string) (err error) {
		switch key {
		case "cell":
			c.Cell, err = d.strings()
		case "agg":
			err = d.agg(&c.Agg)
		}
		return err
	})
}

func (d *envelopeReader) agg(a *stats.AggregateWire) error {
	if d.null() {
		return nil
	}
	return d.object(aggKeys, func(key string) (err error) {
		switch key {
		case "trials":
			a.Trials, err = d.int()
		case "successes":
			a.Successes, err = d.int()
		case "rounds":
			d.floats = d.floats[:0]
			var null bool
			null, err = d.array(func() error {
				f, err := d.float()
				d.floats = append(d.floats, f)
				return err
			})
			if !null {
				a.Rounds = append(make([]float64, 0, len(d.floats)), d.floats...)
			}
		case "collisions":
			a.Collisions, err = d.int64()
		case "silences":
			a.Silences, err = d.int64()
		case "transmissions":
			a.Transmissions, err = d.int64()
		case "listens":
			a.Listens, err = d.int64()
		}
		return err
	})
}

func (d *envelopeReader) strings() ([]string, error) {
	d.strs = d.strs[:0]
	null, err := d.array(func() error {
		s, err := d.string()
		d.strs = append(d.strs, s)
		return err
	})
	if null || err != nil {
		return nil, err
	}
	return append(make([]string, 0, len(d.strs)), d.strs...), nil
}

func (d *envelopeReader) string() (string, error) {
	if d.null() {
		return "", nil
	}
	b, err := d.quoted()
	if err != nil {
		return "", err
	}
	if s, ok := d.interned[string(b)]; ok {
		return s, nil
	}
	if d.interned == nil {
		d.interned = make(map[string]string)
	}
	s := string(b)
	d.interned[s] = s
	return s, nil
}

// quoted reads a string token. Plain printable ASCII is returned as a
// sub-slice of the input; a string with escapes or non-ASCII bytes is
// decoded by unquote.
func (d *envelopeReader) quoted() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start, plain := d.i, true
	for d.i < len(d.data) {
		switch c := d.data[d.i]; {
		case c == '"':
			body := d.data[start:d.i]
			d.i++
			if plain {
				return body, nil
			}
			return unquote(body), nil
		case c == '\\':
			plain = false
			if d.i+1 == len(d.data) {
				return nil, d.errorf("unterminated string")
			}
			switch d.data[d.i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i += 2
			case 'u':
				if d.i+6 > len(d.data) || hex4(d.data[d.i+2:d.i+6]) < 0 {
					return nil, d.errorf("invalid \\u escape in string")
				}
				d.i += 6
			default:
				return nil, d.errorf("invalid escape \\%c in string", d.data[d.i+1])
			}
			continue
		case c < ' ':
			return nil, d.errorf("control character %q in string", c)
		case c >= utf8.RuneSelf:
			plain = false
		}
		d.i++
	}
	return nil, d.errorf("unterminated string")
}

// unquote decodes the body of a string token whose escapes quoted has
// checked, the way encoding/json does: a valid surrogate pair joins, and an
// unpaired surrogate or a byte of invalid UTF-8 becomes U+FFFD.
func unquote(s []byte) []byte {
	out := make([]byte, 0, len(s)+utf8.UTFMax)
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\' && s[i+1] == 'u':
			r := hex4(s[i+2 : i+6])
			i += 6
			if utf16.IsSurrogate(r) {
				if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
					if pair := utf16.DecodeRune(r, hex4(s[i+2:i+6])); pair != unicode.ReplacementChar {
						out = utf8.AppendRune(out, pair)
						i += 6
						continue
					}
				}
				r = unicode.ReplacementChar
			}
			out = utf8.AppendRune(out, r)
		case c == '\\':
			switch e := s[i+1]; e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			default: // '"', '\\', '/'
				out = append(out, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return out
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number reads a token of JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or a null (a nil token).
func (d *envelopeReader) number() ([]byte, error) {
	if d.null() {
		return nil, nil
	}
	start := d.i
	d.accept('-')
	if !d.accept('0') && d.digits() == 0 {
		if d.i == len(d.data) {
			return nil, d.errorf("unexpected end of input, want a number")
		}
		return nil, d.errorf("unexpected %q, want a number", d.data[d.i])
	}
	if d.accept('.') && d.digits() == 0 {
		return nil, d.errorf("invalid number %q", d.data[start:d.i])
	}
	if d.accept('e') || d.accept('E') {
		if !d.accept('+') {
			d.accept('-')
		}
		if d.digits() == 0 {
			return nil, d.errorf("invalid number %q", d.data[start:d.i])
		}
	}
	return d.data[start:d.i], nil
}

// digits consumes a run of decimal digits and returns its length.
func (d *envelopeReader) digits() int {
	start := d.i
	for d.i < len(d.data) && '0' <= d.data[d.i] && d.data[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

func (d *envelopeReader) int() (int, error) {
	v, err := d.integer(strconv.IntSize)
	return int(v), err
}

func (d *envelopeReader) int64() (int64, error) {
	return d.integer(64)
}

// integer reads a number into a signed integer field of the given width:
// as in encoding/json, a fraction, an exponent or an overflow is an error
// (strconv.ParseInt takes none of them).
func (d *envelopeReader) integer(bits int) (int64, error) {
	tok, err := d.number()
	if err != nil || tok == nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		return 0, d.errorf("number %s does not fit an integer field", tok)
	}
	return v, nil
}

func (d *envelopeReader) float() (float64, error) {
	tok, err := d.number()
	if err != nil || tok == nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, d.errorf("number %s out of float64 range", tok)
	}
	return f, nil
}
