package stream

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func sensorSchema() *Schema {
	return &Schema{
		Name: "sensor",
		Fields: []Field{
			{Name: "id", Type: TInt64},
			{Name: "value", Type: TFloat64},
			{Name: "unit", Type: TString},
			{Name: "raw", Type: TBytes},
			{Name: "valid", Type: TBool},
		},
	}
}

func sensorItem(t *testing.T, seq int64) Item {
	t.Helper()
	rec, err := NewRecord(sensorSchema(), seq*10, float64(seq)*1.5, "K", []byte{1, 2, byte(seq)}, seq%2 == 0)
	if err != nil {
		t.Fatal(err)
	}
	return Item{Seq: seq, Time: time.Unix(1000+seq, 500).UTC(), Payload: rec}
}

func TestSchemaValidate(t *testing.T) {
	if err := sensorSchema().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schema{
		{Fields: []Field{{Name: "a", Type: TInt64}}}, // no name
		{Name: "x"}, // no fields
		{Name: "x", Fields: []Field{{Type: TInt64}}},                                      // unnamed field
		{Name: "x", Fields: []Field{{Name: "a", Type: TInt64}, {Name: "a", Type: TBool}}}, // dup
		{Name: "x", Fields: []Field{{Name: "a", Type: 99}}},                               // bad type
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestRecordValidateTypes(t *testing.T) {
	s := sensorSchema()
	if _, err := NewRecord(s, int64(1), 2.0, "u", []byte{}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRecord(s, 1, 2.0, "u", []byte{}, true); err == nil {
		t.Fatal("int accepted for int64 field")
	}
	if _, err := NewRecord(s, int64(1), 2.0, "u", []byte{}); err == nil {
		t.Fatal("short value tuple accepted")
	}
	r := Record{}
	if r.Validate() == nil {
		t.Fatal("schema-less record accepted")
	}
}

func TestRecordGet(t *testing.T) {
	it := sensorItem(t, 3)
	v, err := it.Payload.Get("value")
	if err != nil || v.(float64) != 4.5 {
		t.Fatalf("Get(value) = %v, %v", v, err)
	}
	if _, err := it.Payload.Get("missing"); err == nil {
		t.Fatal("missing field lookup succeeded")
	}
}

func TestFBSRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, sensorSchema())
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := int64(0); i < n; i++ {
		if err := enc.Encode(sensorItem(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	dec := NewDecoder(&buf)
	schema, err := dec.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if !schema.Equal(*sensorSchema()) {
		t.Fatalf("decoded schema differs: %+v", schema)
	}
	for i := int64(0); i < n; i++ {
		it, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		want := sensorItem(t, i)
		if it.Seq != want.Seq || !it.Time.Equal(want.Time) {
			t.Fatalf("item %d header mismatch: %+v", i, it)
		}
		for f := range want.Payload.Values {
			switch wv := want.Payload.Values[f].(type) {
			case []byte:
				if !bytes.Equal(wv, it.Payload.Values[f].([]byte)) {
					t.Fatalf("item %d field %d bytes mismatch", i, f)
				}
			default:
				if it.Payload.Values[f] != wv {
					t.Fatalf("item %d field %d: %v != %v", i, f, it.Payload.Values[f], wv)
				}
			}
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestFBSTruncationIsUnexpectedEOF(t *testing.T) {
	var buf bytes.Buffer
	enc, _ := NewEncoder(&buf, sensorSchema())
	enc.Encode(sensorItem(t, 1))
	enc.Flush()
	data := buf.Bytes()
	dec := NewDecoder(bytes.NewReader(data[:len(data)-3]))
	if _, err := dec.Decode(); err != io.ErrUnexpectedEOF {
		t.Fatalf("expected ErrUnexpectedEOF, got %v", err)
	}
}

func TestFBSBadMagic(t *testing.T) {
	dec := NewDecoder(bytes.NewReader([]byte("NOPE....")))
	if _, err := dec.Schema(); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestFBSSchemaMismatchOnEncode(t *testing.T) {
	var buf bytes.Buffer
	enc, _ := NewEncoder(&buf, sensorSchema())
	other := &Schema{Name: "other", Fields: []Field{{Name: "x", Type: TInt64}}}
	rec, _ := NewRecord(other, int64(1))
	if err := enc.Encode(Item{Payload: rec}); err == nil {
		t.Fatal("wrong-schema item encoded")
	}
}

func TestFBSOversizedBlobRejected(t *testing.T) {
	s := &Schema{Name: "b", Fields: []Field{{Name: "d", Type: TBytes}}}
	var buf bytes.Buffer
	enc, _ := NewEncoder(&buf, s)
	rec, _ := NewRecord(s, make([]byte, maxBlob+1))
	if err := enc.Encode(Item{Payload: rec}); err == nil {
		t.Fatal("oversized blob encoded")
	}
}

func TestFBSPropertyRoundTrip(t *testing.T) {
	s := &Schema{Name: "q", Fields: []Field{
		{Name: "i", Type: TInt64},
		{Name: "f", Type: TFloat64},
		{Name: "s", Type: TString},
	}}
	f := func(i int64, fv float64, sv string, seq int64, nanos int64) bool {
		rec, err := NewRecord(s, i, fv, sv)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		enc, _ := NewEncoder(&buf, s)
		if enc.Encode(Item{Seq: seq, Time: time.Unix(0, nanos), Payload: rec}) != nil {
			return false
		}
		enc.Flush()
		it, err := NewDecoder(&buf).Decode()
		if err != nil {
			return false
		}
		// NaN float payloads cannot compare equal; encode bits instead.
		same := it.Seq == seq && it.Time.UnixNano() == nanos &&
			it.Payload.Values[0] == i && it.Payload.Values[2] == sv
		got := it.Payload.Values[1].(float64)
		if fv != fv { // NaN
			return same && got != got
		}
		return same && got == fv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFBSDecodeAllocs pins the decoder's per-field cost at zero. Read
// field by field, an int64-only record allocates nothing, whatever its
// values. Through Decode it allocates the Item's values slice and nothing
// per field: the record holds 0–255, the int64s Go boxes into an any
// without allocating, so what is left is the decoder's own work (a larger
// value costs one box each, the price of the []any API, not of the
// decoder).
func TestFBSDecodeAllocs(t *testing.T) {
	const fields, records = 8, 300
	s := intsSchema(fields)
	stream := func(base int64) []byte {
		var buf bytes.Buffer
		enc, _ := NewEncoder(&buf, s)
		for i := int64(0); i < records; i++ {
			enc.Begin(i, time.Unix(i, 0))
			for f := int64(0); f < fields; f++ {
				enc.PutInt64(base + f)
			}
			if err := enc.End(); err != nil {
				t.Fatal(err)
			}
		}
		enc.Flush()
		return buf.Bytes()
	}

	dec := NewDecoder(bytes.NewReader(stream(1 << 40)))
	read := func() {
		if _, _, err := dec.Begin(); err != nil {
			t.Fatal(err)
		}
		for f := int64(0); f < fields; f++ {
			if v := dec.ReadInt64(); v != 1<<40+f {
				t.Fatalf("field %d = %d", f, v)
			}
		}
		if err := dec.End(); err != nil {
			t.Fatal(err)
		}
	}
	read() // the header
	if n := testing.AllocsPerRun(records-2, read); n != 0 {
		t.Errorf("field reader: %.1f allocations per %d-field int64 record, want 0", n, fields)
	}

	dec = NewDecoder(bytes.NewReader(stream(0)))
	decode := func() {
		it, err := dec.Decode()
		if err != nil || len(it.Payload.Values) != fields || it.Payload.Values[fields-1] != int64(fields-1) {
			t.Fatalf("Decode = %+v, %v", it, err)
		}
	}
	decode()
	if n := testing.AllocsPerRun(records-2, decode); n != 1 {
		t.Errorf("Decode: %.1f allocations per %d-field int64 record, want 1 (the values slice)", n, fields)
	}
}
