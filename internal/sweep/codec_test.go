package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"nsmac/internal/stats"
)

// The envelope codec's tests hold it to encoding/json, the codec it
// replaced: Encode must write MarshalIndent's bytes, and the reader must
// accept and decode what the strict encoding/json decoder did, apart from
// the two documented tightenings (case-sensitive keys, no repeated keys).

// bs is a lone backslash, for spelling JSON escapes in test inputs.
const bs = `\`

// okEnvelope is a valid compact envelope: shard 1 of 3 of a 4-trial grid
// carries one trial per cell.
const okEnvelope = `{"fingerprint":"x","name":"g","axes":["k"],"shard":1,"shards":3,"trials":4,"cells":[` +
	`{"cell":["2"],"agg":{"trials":1,"successes":1,"rounds":[7],"collisions":0,"silences":0,"transmissions":1,"listens":0}}]}`

// withOK returns okEnvelope with its first old replaced by new.
func withOK(old, new string) string {
	if !strings.Contains(okEnvelope, old) {
		panic("okEnvelope has no " + old)
	}
	return strings.Replace(okEnvelope, old, new, 1)
}

// badEnvelopes must all be rejected: malformed JSON, JSON outside the
// schema, and envelopes that parse but fail Validate.
var badEnvelopes = []string{
	`{"fingerprint":`,
	`{"fingerprint":"x","bogus":1}`,
	`{"fingerprint":"x"}{"fingerprint":"y"}`,
	// Hardening: syntactically fine, semantically broken.
	`{"fingerprint":"x","name":"g","axes":[],"shard":0,"shards":0,"trials":4,"cells":[]}`,
	`{"fingerprint":"x","name":"g","axes":[],"shard":3,"shards":3,"trials":4,"cells":[]}`,
	`{"fingerprint":"x","name":"g","axes":[],"shard":-1,"shards":3,"trials":4,"cells":[]}`,
	`{"fingerprint":"x","name":"g","axes":[],"shard":0,"shards":3,"trials":-4,"cells":[]}`,
	`{"fingerprint":"","name":"g","axes":[],"shard":0,"shards":3,"trials":4,"cells":[]}`,
	// A cell carrying more trials than the striped plan assigns shard 1
	// of 3 out of 4 (namely 1).
	`{"fingerprint":"x","name":"g","axes":["k"],"shard":1,"shards":3,"trials":4,"cells":[
		{"cell":["2"],"agg":{"trials":2,"successes":2,"rounds":[1,2],"collisions":0,"silences":0,"transmissions":2,"listens":0}}]}`,
	// A cell whose sample count disagrees with its own trial counter
	// (the stats wire integrity check).
	`{"fingerprint":"x","name":"g","axes":["k"],"shard":1,"shards":3,"trials":4,"cells":[
		{"cell":["2"],"agg":{"trials":1,"successes":1,"rounds":[],"collisions":0,"silences":0,"transmissions":1,"listens":0}}]}`,
	// Number grammar.
	withOK(`"trials":4`, `"trials":+4`),
	withOK(`"trials":4`, `"trials":04`),
	withOK(`"rounds":[7]`, `"rounds":[7.]`),
	withOK(`"rounds":[7]`, `"rounds":[.5]`),
	withOK(`"rounds":[7]`, `"rounds":[7e]`),
	withOK(`"rounds":[7]`, `"rounds":[-]`),
	withOK(`"rounds":[7]`, `"rounds":[1e400]`),
	// Integers with a fraction, an exponent, or past int64.
	withOK(`"trials":1,`, `"trials":1.0,`),
	withOK(`"trials":4`, `"trials":1e2`),
	withOK(`"collisions":0`, `"collisions":9223372036854775808`),
	// Strings: a raw control character, a bad escape, no closing quote.
	withOK(`"name":"g"`, "\"name\":\"g\x01\""),
	withOK(`"name":"g"`, `"name":"g`+bs+`x"`),
	withOK(`"name":"g"`, `"name":"g`+bs+`u12"`),
	`{"fingerprint":"x`,
	// Unterminated containers.
	`{"fingerprint":"x","axes":["k"`,
	`{"fingerprint":"x","axes":["k"]`,
	// Wrong types.
	withOK(`"name":"g"`, `"name":7`),
	withOK(`"axes":["k"]`, `"axes":"k"`),
	withOK(`"shards":3`, `"shards":"3"`),
	withOK(`"shards":3`, `"shards":true`),
	withOK(`"rounds":[7]`, `"rounds":{}`),
	`[]`,
	// Trailing data, also after whitespace and also a stray closer.
	okEnvelope + "  \n x",
	okEnvelope + "]",
	okEnvelope + " }",
	// The two tightenings: a repeated key and a case-folded key.
	withOK(`"name":"g"`, `"name":"g","name":"g"`),
	withOK(`"listens":0`, `"listens":0,"listens":0`),
	withOK(`"shards":3`, `"Shards":3`),
	// Not JSON at all.
	``,
	`   `,
	`nul`,
}

// TestDecodeShardResultErrors covers the envelope decode error paths,
// including the hardening: an envelope must be internally consistent (plan
// coordinates, fingerprint present, per-cell trial counts matching the
// striped plan, wire integrity) before it is trusted.
func TestDecodeShardResultErrors(t *testing.T) {
	for _, bad := range badEnvelopes {
		_, err := DecodeShardResult([]byte(bad))
		if err == nil {
			t.Errorf("decoded %q", bad)
			continue
		}
		if _, perr := decodeEnvelope([]byte(bad)); perr != nil && !strings.HasPrefix(perr.Error(), "sweep: bad shard file: ") {
			t.Errorf("decoding %q: error %q lacks the bad-shard-file prefix", bad, perr)
		}
	}
}

// goodEnvelopes must decode, each to what encoding/json decodes it to.
var goodEnvelopes = []string{
	okEnvelope,
	// Any whitespace, fields in any order.
	" \t\r\n" + strings.ReplaceAll(okEnvelope, ",", " ,\n\t") + "\r\n ",
	`{"cells":[{"agg":{"listens":2,"rounds":[7.5],"trials":1,"transmissions":3,"successes":1,` +
		`"silences":4,"collisions":5},"cell":["2"]}],"trials":4,"shards":3,"axes":["k"],"shard":1,` +
		`"name":"g","fingerprint":"x"}`,
	// Envelopes written before the listens counter, and sparser ones.
	withOK(`,"listens":0`, ``),
	`{"fingerprint":"x","shards":1}`,
	// Escaped keys and labels, non-ASCII and invalid UTF-8, surrogates.
	withOK(`"trials":4`, `"`+bs+`u0074rials":4`),
	withOK(`"name":"g"`, `"name":"q`+bs+`"`+bs+bs+bs+`/`+bs+`b`+bs+`f`+bs+`n`+bs+`r`+bs+`t`+bs+`u003c&"`),
	withOK(`["2"]`, `["`+bs+`u00e9", "ñ日本", "`+bs+`ud83d`+bs+`ude00", "`+bs+`ud800x", "`+bs+`udc00`+bs+`ud800", "`+"\xff\xfe"+`", "`+"\xe2\x80\xa8"+`"]`),
	withOK(`"axes":["k"]`, `"axes":["", "<&>", "`+bs+`u0000"]`),
	// null keeps a field's zero value; a null slice decodes as nil.
	`{"fingerprint":"x","name":null,"axes":null,"shard":null,"shards":1,"trials":0,"cells":null}`,
	`{"fingerprint":"x","name":"g","axes":["k"],"shard":4,"shards":5,"trials":2,"cells":[` +
		`{"cell":null,"agg":{"trials":0,"successes":0,"rounds":null,"collisions":0,"silences":0,"transmissions":0}},` +
		`{"cell":[null],"agg":null},null]}`,
	// Numbers: -0, exponents and fractions in samples.
	withOK(`"shard":1,"shards":3,"trials":4`, `"shard":-0,"shards":1,"trials":1`),
	withOK(`"rounds":[7]`, `"rounds":[2.5E-1]`),
	withOK(`"rounds":[7]`, `"rounds":[-0.0]`),
	withOK(`"rounds":[7]`, `"rounds":[1e2]`),
	withOK(`"collisions":0`, `"collisions":9223372036854775807`),
	withOK(`"silences":0`, `"silences":-0`),
	// A top-level null decodes to the zero envelope, which Validate
	// rejects; the parse alone accepts it.
}

// TestDecodeShardResultAccepts decodes every good envelope and compares it
// with encoding/json's decode of the same bytes.
func TestDecodeShardResultAccepts(t *testing.T) {
	for _, good := range goodEnvelopes {
		got, err := DecodeShardResult([]byte(good))
		if err != nil {
			t.Errorf("rejected %q: %v", good, err)
			continue
		}
		want, _, err := oldDecode([]byte(good))
		if err != nil {
			t.Errorf("encoding/json rejects %q: %v", good, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("decoding %q:\n got %+v\nwant %+v", good, got, want)
		}
	}
	if _, err := decodeEnvelope([]byte(" null ")); err != nil {
		t.Errorf("a top-level null does not parse: %v", err)
	}
}

// TestFingerprintGolden pins Grid.Fingerprint to digests computed by its
// fmt.Fprintf implementation, on the campaign_fanout benchmark grid and on
// labels that exercise strconv.Quote: quotes, backslashes, non-ASCII and
// invalid UTF-8, HTML characters, control bytes and empty labels. Run
// stores name their directories by fingerprint, so these must never move.
func TestFingerprintGolden(t *testing.T) {
	doc := SpecDoc{
		Name:     "campaign_fanout",
		Cases:    []string{"wakeupc", "roundrobin", "rpd", "tree_cd"},
		Patterns: []string{"staggered:3", "spoiler", "uniform:64"},
		Channels: []string{"none", "cd", "noisy:0.1"},
		Ns:       []int{256, 1024}, Ks: []int{4, 16, 64}, Trials: 32, Seed: 20130527,
	}
	spec, err := doc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	fanout, _, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(fanout.Cells) != 198 {
		t.Fatalf("campaign_fanout grid has %d cells, want 198", len(fanout.Cells))
	}
	odd := Grid{
		Name:   "odd \"grid\" \\ <ñame> & co",
		Axes:   []string{"algo", "pätterñ", "", "a<b>&\"c\"\\d"},
		Cells:  [][]string{{"x", "", "日本", "\t\n"}, {"\x7f\x01", "</script>", " \xff ", "ok"}},
		Trials: 7, Seed: 1<<63 + 12345,
	}
	for _, tc := range []struct {
		name string
		g    Grid
		want string
	}{
		{"campaign_fanout", fanout, "da1d7beadf062073fabeb578aa64414f"},
		{"odd labels", odd, "cd54894ae0339368583d1309f9a94207"},
	} {
		if got := tc.g.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// realEnvelopes runs a small grid with a randomized case, a white-box
// pattern and a noisy channel as shards 0..2 of 3, plus a zero-trial shard
// whose samples are null.
func realEnvelopes(tb testing.TB) []*ShardResult {
	tb.Helper()
	spec, err := SpecDoc{
		Name:     "codec",
		Cases:    []string{"wakeupc", "rpd", "tree_cd"},
		Patterns: []string{"staggered:3", "uniform:16", "spoiler"},
		Channels: []string{"none", "noisy:0.1"},
		Ns:       []int{64}, Ks: []int{2, 8}, Trials: 5, Seed: 424242,
	}.Resolve()
	if err != nil {
		tb.Fatal(err)
	}
	g, err := spec.Grid()
	if err != nil {
		tb.Fatal(err)
	}
	var out []*ShardResult
	for _, at := range [][2]int{{0, 3}, {1, 3}, {2, 3}, {6, 7}} {
		r, err := g.RunShard(at[0], at[1])
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// edgeEnvelope carries the values whose encoding has edge cases: every
// float format boundary, -0, nil and empty slices, and strings that need
// escaping, including invalid UTF-8.
func edgeEnvelope() *ShardResult {
	odd := "q\"\\/<>&\x00\x1f\x7f\b\f\n\r\tñ\xff\xe2\x80\xa8\xe2\x80\xa9\xf0\x9f\x98\x80"
	return &ShardResult{
		Fingerprint: odd, Name: "", Axes: nil, Shard: -3, Shards: math.MaxInt, Trials: math.MinInt,
		Cells: []ShardCell{
			{Cell: []string{odd, ""}, Agg: stats.AggregateWire{
				Trials: 1, Successes: -1, Collisions: math.MaxInt64, Silences: math.MinInt64,
				Rounds: []float64{
					0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), -1e-7, 1.5e-9,
					1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 123456789.125, 1e-300,
					5e-324, math.MaxFloat64, 0.1, 1.0 / 3,
				},
			}},
			{Cell: []string{}, Agg: stats.AggregateWire{Rounds: []float64{}}},
			{},
		},
	}
}

// marshalOracle is the encoder this codec replaced.
func marshalOracle(r *ShardResult) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// oldDecode is the decoder this codec replaced, without its final
// Validate: encoding/json with unknown fields rejected and a Decoder.More
// check for trailing data. It also returns what follows the decoded value,
// since More lets a stray ']' or '}' through.
func oldDecode(data []byte) (*ShardResult, []byte, error) {
	var r ShardResult
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, nil, err
	}
	if dec.More() {
		return nil, nil, errors.New("trailing data after shard envelope")
	}
	return &r, data[dec.InputOffset():], nil
}

// canonicalKeys reports whether every object key in the first JSON value of
// data is spelled exactly as a schema key and none repeats within its
// object: the inputs on which the old decoder's case folding and
// last-one-wins never came into play.
func canonicalKeys(data []byte) bool {
	known := map[string]bool{}
	for _, keys := range [][]string{envelopeKeys, cellKeys, aggKeys} {
		for _, k := range keys {
			known[k] = true
		}
	}
	type frame struct {
		object, wantKey bool
		seen            map[string]bool
	}
	var stack []*frame
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if n := len(stack); n > 0 && stack[n-1].wantKey {
			if k, ok := tok.(string); ok {
				top := stack[n-1]
				if !known[k] || top.seen[k] {
					return false
				}
				top.seen[k], top.wantKey = true, false
				continue
			}
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{object: true, wantKey: true, seen: map[string]bool{}})
			continue
		case json.Delim('['):
			stack = append(stack, &frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		// A value just ended.
		if len(stack) == 0 {
			return true
		}
		if top := stack[len(stack)-1]; top.object {
			top.wantKey = true
		}
	}
}

func isJSONSpace(b []byte) bool {
	return len(bytes.TrimLeft(b, " \t\r\n")) == 0
}

// checkDecode holds the reader to the old decoder on data: whatever it
// accepts, encoding/json accepts with an equal result, and it accepts
// whatever encoding/json accepts that has canonical keys and no trailing
// bytes. DecodeShardResult is the parse followed by Validate.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	got, err := decodeEnvelope(data)
	old, rest, oerr := oldDecode(data)
	if err == nil {
		if oerr != nil {
			t.Fatalf("accepted %q, which encoding/json rejects: %v", data, oerr)
		}
		if !reflect.DeepEqual(got, old) {
			t.Fatalf("decoding %q:\n got %+v\nwant %+v", data, got, old)
		}
	} else {
		if !strings.HasPrefix(err.Error(), "sweep: bad shard file: ") {
			t.Fatalf("error %q lacks the bad-shard-file prefix", err)
		}
		if oerr == nil && isJSONSpace(rest) && canonicalKeys(data) {
			t.Fatalf("rejected %q (%v), which encoding/json accepts", data, err)
		}
	}
	_, derr := DecodeShardResult(data)
	if want := err == nil && got.Validate() == nil; (derr == nil) != want {
		t.Fatalf("DecodeShardResult(%q) error %v, want an error: %v", data, derr, !want)
	}
}

// checkEncode holds Encode to MarshalIndent on r, and checks that the bytes
// and their compact form decode.
func checkEncode(t *testing.T, r *ShardResult) {
	t.Helper()
	got, err := r.Encode()
	want, werr := marshalOracle(r)
	if (err == nil) != (werr == nil) {
		t.Fatalf("Encode error %v, encoding/json error %v", err, werr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Encode differs from encoding/json:\n got %s\nwant %s", got, want)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, got); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{got, compact.Bytes()} {
		if _, err := decodeEnvelope(data); err != nil {
			t.Fatalf("Encode output does not decode: %v\n%s", err, data)
		}
		checkDecode(t, data)
	}
}

// TestShardResultCodecMatchesEncodingJSON runs real and edge-case envelopes
// through both codecs: the bytes must be encoding/json's, a valid envelope
// must survive the round trip unchanged, and non-finite samples must fail
// to encode.
func TestShardResultCodecMatchesEncodingJSON(t *testing.T) {
	for _, r := range realEnvelopes(t) {
		checkEncode(t, r)
		data, err := r.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeShardResult(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("round trip changed shard %d:\n got %+v\nwant %+v", r.Shard, back, r)
		}
	}
	checkEncode(t, edgeEnvelope())
	checkEncode(t, &ShardResult{})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := edgeEnvelope()
		r.Cells[1].Agg.Rounds = []float64{1, bad}
		if _, err := r.Encode(); err == nil {
			t.Errorf("encoded a %v sample", bad)
		}
		checkEncode(t, r)
	}
}

// fuzzEnvelope builds an envelope from fuzzed fields; shape picks nil,
// empty or populated slices.
func fuzzEnvelope(s1, s2 string, x1, x2 float64, shape uint8) *ShardResult {
	strs := func(sel uint8) []string {
		switch sel & 3 {
		case 0:
			return nil
		case 1:
			return []string{}
		case 2:
			return []string{s1}
		}
		return []string{s1, s2}
	}
	var rounds []float64
	switch shape >> 6 {
	case 1:
		rounds = []float64{}
	case 2:
		rounds = []float64{x1}
	case 3:
		rounds = []float64{x1, x2, -x1, x1 * x2, x1 / 7}
	}
	r := &ShardResult{
		Fingerprint: s1, Name: s2, Axes: strs(shape),
		Shard: int(shape), Shards: int(int8(shape)), Trials: len(s1) - len(s2),
	}
	cells := (shape >> 2) & 3
	if cells > 0 {
		r.Cells = []ShardCell{}
	}
	for i := 1; i < int(cells); i++ {
		r.Cells = append(r.Cells, ShardCell{Cell: strs(shape >> 4), Agg: stats.AggregateWire{
			Trials: int(x2), Successes: i, Rounds: rounds,
			Collisions: int64(math.Float64bits(x1)), Silences: -int64(len(s1)),
			Transmissions: int64(shape), Listens: math.MinInt64 + int64(i),
		}})
	}
	return r
}

// FuzzShardResultCodec is the codec's differential against encoding/json:
// Encode must equal MarshalIndent on envelopes built from the fuzzed
// fields, and the reader must agree with the old decoder on data (see
// checkDecode).
func FuzzShardResultCodec(f *testing.F) {
	var seeds [][]byte
	for _, r := range append(realEnvelopes(f), edgeEnvelope()) {
		// Two cells keep each seed small enough to mutate and minimize
		// quickly.
		r.Cells = r.Cells[:min(2, len(r.Cells))]
		data, err := r.Encode()
		if err != nil {
			f.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data, compact.Bytes())
	}
	for _, s := range append(badEnvelopes, goodEnvelopes...) {
		seeds = append(seeds, []byte(s))
	}
	for i, data := range seeds {
		f.Add(data, "grid", "k=2", 2.5, 7.0, uint8(i*37))
	}
	f.Add([]byte(okEnvelope), "<&>\x00\xff", "\xe2\x80\xa8", 1e-6, 1e21, uint8(0xff))
	f.Add([]byte(okEnvelope), "", "\"\\", math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), uint8(0xee))
	f.Add([]byte(okEnvelope), "a", "b", math.Copysign(0, -1), 1e-7, uint8(0xdd))
	f.Add([]byte(okEnvelope), "a", "b", math.NaN(), 1.0, uint8(0xcc))
	f.Add([]byte(okEnvelope), "a", "b", 1.0, math.Inf(-1), uint8(0xcc))
	f.Fuzz(func(t *testing.T, data []byte, s1, s2 string, x1, x2 float64, shape uint8) {
		checkEncode(t, fuzzEnvelope(s1, s2, x1, x2, shape))
		checkDecode(t, data)
	})
}

// BenchmarkShardResultCodec encodes and decodes one shard of the
// campaign_fanout benchmark grid: 198 cells of one trial each, about 67 KB.
func BenchmarkShardResultCodec(b *testing.B) {
	spec, err := SpecDoc{
		Name:     "campaign_fanout",
		Cases:    []string{"wakeupc", "roundrobin", "rpd", "tree_cd"},
		Patterns: []string{"staggered:3", "spoiler", "uniform:64"},
		Channels: []string{"none", "cd", "noisy:0.1"},
		Ns:       []int{256, 1024}, Ks: []int{4, 16, 64}, Trials: 32, Seed: 20130527,
	}.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	r, err := spec.Shard(0, 32)
	if err != nil {
		b.Fatal(err)
	}
	data, err := r.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := r.Encode(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := DecodeShardResult(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
