package stream

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// TestFBSDecodeNeverPanicsOnCorruption mutates valid streams and asserts
// the decoder returns errors instead of panicking or looping: robustness
// against the truncated/bit-rotted files long-lived workflows encounter.
func TestFBSDecodeNeverPanicsOnCorruption(t *testing.T) {
	var pristine bytes.Buffer
	enc, _ := NewEncoder(&pristine, sensorSchema())
	for i := int64(0); i < 5; i++ {
		rec, _ := NewRecord(sensorSchema(), i, float64(i), "u", []byte{1, 2}, true)
		enc.Encode(Item{Seq: i, Time: time.Unix(i, 0), Payload: rec})
	}
	enc.Flush()
	base := pristine.Bytes()

	f := func(pos uint16, val byte, truncate uint16) bool {
		data := append([]byte(nil), base...)
		if len(data) == 0 {
			return true
		}
		data[int(pos)%len(data)] = val
		if cut := int(truncate) % (len(data) + 1); cut < len(data) {
			data = data[:cut]
		}
		dec := NewDecoder(bytes.NewReader(data))
		// Decode until any error; cap iterations to catch infinite loops.
		for i := 0; i < 100; i++ {
			_, err := dec.Decode()
			if err != nil {
				return true // any error is acceptable; panics are not
			}
		}
		// A mutated stream yielding >100 records means runaway parsing of
		// the 5-record input.
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFBSDecodeEmptyAndGarbage covers degenerate inputs.
func TestFBSDecodeEmptyAndGarbage(t *testing.T) {
	for _, in := range [][]byte{
		nil,
		{0x00},
		[]byte("FBS1"),     // magic only
		[]byte("FBS1\x02"), // wrong version
		bytes.Repeat([]byte{0xFF}, 64),
	} {
		dec := NewDecoder(bytes.NewReader(in))
		if _, err := dec.Decode(); err == nil {
			t.Fatalf("garbage %v decoded", in)
		}
	}
	// Clean empty stream (header only) yields EOF.
	var buf bytes.Buffer
	enc, _ := NewEncoder(&buf, sensorSchema())
	rec, _ := NewRecord(sensorSchema(), int64(1), 1.0, "x", []byte{}, false)
	enc.Encode(Item{Payload: rec})
	enc.Flush()
	dec := NewDecoder(&buf)
	if _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// FuzzFBSDecode drives arbitrary bytes through both readers of the one
// codec — Decode, which boxes every field into the Item's []any, and the
// field-level Begin/Read/End, reading bytes fields through ReadView — and
// requires that neither panics and that they agree: the same records with
// the same values, then the same error. Whatever decodes is re-encoded, and
// that canonical stream, cut anywhere, must decode to the records before
// the cut followed by a clean io.EOF at a record boundary, and by
// io.ErrUnexpectedEOF anywhere else. Last, the input itself, as the string
// and the bytes field of one record — once as it is and once repeated past
// the reader's buffer — must come back unchanged through both readers.
func FuzzFBSDecode(f *testing.F) {
	stream := func(s *Schema, items ...Item) []byte {
		var buf bytes.Buffer
		enc, _ := NewEncoder(&buf, s)
		for _, it := range items {
			if err := enc.Encode(it); err != nil {
				f.Fatal(err)
			}
		}
		enc.Flush()
		return buf.Bytes()
	}
	rec := func(s *Schema, seq int64, values ...any) Item {
		r, err := NewRecord(s, values...)
		if err != nil {
			f.Fatal(err)
		}
		return Item{Seq: seq, Time: time.Unix(seq, 7), Payload: r}
	}
	sensor := stream(sensorSchema(),
		rec(sensorSchema(), 1, int64(-5), 2.5, "K", []byte{1, 2}, true),
		rec(sensorSchema(), 2, int64(1<<40), -0.0, "", []byte{}, false))
	f.Add(sensor)
	f.Add(sensor[:len(sensor)-3])
	ints := intsSchema(3)
	f.Add(stream(ints, rec(ints, 9, int64(300), int64(-1), int64(0))))
	big := &Schema{Name: "big", Fields: []Field{{Name: "s", Type: TString}, {Name: "b", Type: TBytes}}}
	f.Add(stream(big, rec(big, 1, strings.Repeat("s", 5000), bytes.Repeat([]byte{7}, 5000))))
	f.Add([]byte("FBS1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxRecords = 64
		carry(t, big, data)

		items, err := decodeAll(data, maxRecords)
		fields, ferr := readAllFields(data, maxRecords)
		if len(items) != len(fields) {
			t.Fatalf("Decode read %d records (%v), the field reader %d (%v)", len(items), err, len(fields), ferr)
		}
		for i := range items {
			if !sameItem(items[i], fields[i]) {
				t.Fatalf("record %d: Decode %+v, field reader %+v", i, items[i], fields[i])
			}
		}
		if !sameErr(err, ferr) {
			t.Fatalf("Decode ended with %v, the field reader with %v", err, ferr)
		}
		if len(items) == 0 {
			return
		}

		// The canonical stream: header, then the decoded records; ends[i] is
		// where record i ends.
		s := items[0].Payload.Schema
		var buf bytes.Buffer
		enc, _ := NewEncoder(&buf, s)
		ends := make([]int, len(items))
		for i, it := range items {
			if err := enc.Encode(it); err != nil {
				t.Fatalf("re-encode record %d: %v", i, err)
			}
			enc.Flush()
			ends[i] = buf.Len()
		}
		canon := buf.Bytes()
		header := 4 + 1 + 2 + len(s.Name) + 2
		for _, fd := range s.Fields {
			header += 1 + 2 + len(fd.Name)
		}
		step := max(1, len(canon)/256)
		for cut := 0; cut <= len(canon); cut += step {
			got, err := decodeAll(canon[:cut], maxRecords)
			whole := 0 // records wholly before the cut
			for whole < len(ends) && ends[whole] <= cut {
				whole++
			}
			want := io.ErrUnexpectedEOF
			if cut == 0 || cut == header || whole > 0 && ends[whole-1] == cut {
				want = io.EOF
			}
			if len(got) != whole || err != want {
				t.Fatalf("cut at %d of %d: %d records then %v, want %d then %v", cut, len(canon), len(got), err, whole, want)
			}
			for i := range got {
				if !sameItem(got[i], items[i]) {
					t.Fatalf("cut at %d: record %d changed in the round trip: %+v, want %+v", cut, i, got[i], items[i])
				}
			}
		}
	})
}

// carry writes data as the string and the bytes field of a record of s,
// once as it is and once repeated past the reader's buffer, and requires
// both readers to return it unchanged.
func carry(t *testing.T, s *Schema, data []byte) {
	long := bytes.Repeat(data, 5000/(len(data)+1)+1)
	var buf bytes.Buffer
	enc, _ := NewEncoder(&buf, s)
	for i, p := range [][]byte{data, long} {
		enc.Begin(int64(i), time.Unix(0, int64(len(p))))
		enc.PutString(string(p))
		enc.PutBytes(p)
		if err := enc.End(); err != nil {
			t.Fatal(err)
		}
	}
	enc.Flush()
	items, err := decodeAll(buf.Bytes(), 2)
	fields, ferr := readAllFields(buf.Bytes(), 2)
	if err != nil || ferr != nil || len(items) != 2 || len(fields) != 2 {
		t.Fatalf("carrying the input: Decode %d records then %v, field reader %d then %v", len(items), err, len(fields), ferr)
	}
	for i, p := range [][]byte{data, long} {
		for _, it := range []Item{items[i], fields[i]} {
			if it.Payload.Values[0] != string(p) || !bytes.Equal(it.Payload.Values[1].([]byte), p) {
				t.Fatalf("record %d (%d bytes) came back changed", i, len(p))
			}
		}
	}
}

func intsSchema(n int) *Schema {
	s := &Schema{Name: "ints"}
	for i := 0; i < n; i++ {
		s.Fields = append(s.Fields, Field{Name: fmt.Sprintf("i%d", i), Type: TInt64})
	}
	return s
}

// decodeAll decodes up to max records with Decode and returns them with the
// error that ended the read (nil when max was reached).
func decodeAll(data []byte, max int) ([]Item, error) {
	dec := NewDecoder(bytes.NewReader(data))
	var out []Item
	for len(out) < max {
		it, err := dec.Decode()
		if err != nil {
			return out, err
		}
		out = append(out, it)
	}
	return out, nil
}

// readAllFields is decodeAll through the field-level reader.
func readAllFields(data []byte, max int) ([]Item, error) {
	dec := NewDecoder(bytes.NewReader(data))
	var out []Item
	for len(out) < max {
		seq, at, err := dec.Begin()
		if err != nil {
			return out, err
		}
		s, _ := dec.Schema()
		values := make([]any, len(s.Fields))
		for i, f := range s.Fields {
			switch f.Type {
			case TInt64:
				values[i] = dec.ReadInt64()
			case TFloat64:
				values[i] = dec.ReadFloat64()
			case TString:
				values[i] = dec.ReadString()
			case TBytes:
				values[i] = bytes.Clone(dec.ReadView())
			case TBool:
				values[i] = dec.ReadBool()
			}
		}
		if err := dec.End(); err != nil {
			return out, err
		}
		out = append(out, Item{Seq: seq, Time: at, Payload: Record{Schema: s, Values: values}})
	}
	return out, nil
}

func sameItem(a, b Item) bool {
	if a.Seq != b.Seq || !a.Time.Equal(b.Time) || !a.Payload.Schema.Equal(*b.Payload.Schema) ||
		len(a.Payload.Values) != len(b.Payload.Values) {
		return false
	}
	for i, av := range a.Payload.Values {
		switch av := av.(type) {
		case float64: // NaN payloads compare by bits
			bv, ok := b.Payload.Values[i].(float64)
			if !ok || math.Float64bits(av) != math.Float64bits(bv) {
				return false
			}
		case []byte:
			bv, ok := b.Payload.Values[i].([]byte)
			if !ok || !bytes.Equal(av, bv) {
				return false
			}
		default:
			if av != b.Payload.Values[i] {
				return false
			}
		}
	}
	return true
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}
