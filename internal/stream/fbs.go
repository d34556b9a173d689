package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// FBS ("fairflow binary stream") is a small self-describing binary format:
// every stream begins with its schema, then carries length-delimited record
// frames. A reader needs no compiled-in knowledge of the layout — the
// data-schema gauge's "self-describing binary" tier made concrete.
//
// Wire layout (all integers little-endian):
//
//	stream  := magic(4) version(u8) schema record*
//	schema  := nameLen(u16) name fieldCount(u16) field*
//	field   := type(u8) nameLen(u16) name
//	record  := marker(u8=0x52) seq(i64) unixNano(i64) value*
//	value   := depends on field type; strings/bytes are u32-length-prefixed
//
// There is one codec, at field level: an Encoder writes a record as Begin,
// one Put per field in schema order, End; a Decoder reads it back as Begin,
// one Read per field, End. Integers are appended straight into the
// bufio.Writer's free buffer and read through Peek + Discard, so no field
// costs an allocation on either side, and nothing is boxed into an any.
// Encode and Decode, the Item/[]any API, are loops over the same calls.
var fbsMagic = [4]byte{'F', 'B', 'S', '1'}

const fbsVersion = 1
const recordMarker = 0x52

// maxBlob bounds string/bytes fields (16 MiB) to fail fast on corrupt
// streams rather than allocating absurd buffers.
const maxBlob = 16 << 20

// tBlob is not a wire type: it asks the field check for "string or bytes"
// (Decoder.ReadView reads either).
const tBlob FieldType = 0

// Encoder writes an FBS stream.
type Encoder struct {
	w      *bufio.Writer
	schema *Schema
	wrote  bool
	// next is the schema position of the next Put, -1 outside a record.
	next int
	// err is the first failure; the stream behind it may hold a torn
	// record, so every later call returns it.
	err error
}

// NewEncoder creates an encoder bound to one schema per stream.
func NewEncoder(w io.Writer, schema *Schema) (*Encoder, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	return &Encoder{w: bufio.NewWriter(w), schema: schema, next: -1}, nil
}

func (e *Encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *Encoder) put(b []byte) {
	if _, err := e.w.Write(b); err != nil {
		e.fail(err)
	}
}

// fixed writes v as an n-byte (n ≤ 8) little-endian integer, appended to
// the writer's free buffer — flushed first when it has less than n bytes,
// so the append never reallocates — and handed back to it.
func (e *Encoder) fixed(v uint64, n int) {
	if e.err != nil {
		return
	}
	if e.w.Available() < n {
		if err := e.w.Flush(); err != nil {
			e.fail(err)
			return
		}
	}
	b := e.w.AvailableBuffer()
	for i := 0; i < n; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	e.put(b)
}

func (e *Encoder) byte1(v byte) {
	if e.err == nil {
		if err := e.w.WriteByte(v); err != nil {
			e.fail(err)
		}
	}
}

func (e *Encoder) str(s string) {
	if e.err == nil {
		if _, err := e.w.WriteString(s); err != nil {
			e.fail(err)
		}
	}
}

func (e *Encoder) str16(s string) {
	if len(s) > math.MaxUint16 {
		e.fail(fmt.Errorf("stream: name too long (%d bytes)", len(s)))
		return
	}
	e.fixed(uint64(len(s)), 2)
	e.str(s)
}

func (e *Encoder) blob(n int) bool {
	if n > maxBlob {
		e.fail(fmt.Errorf("stream: blob too large (%d bytes)", n))
		return false
	}
	e.fixed(uint64(n), 4)
	return e.err == nil
}

func (e *Encoder) writeHeader() {
	e.put(fbsMagic[:])
	e.byte1(fbsVersion)
	e.str16(e.schema.Name)
	e.fixed(uint64(len(e.schema.Fields)), 2)
	for _, f := range e.schema.Fields {
		e.byte1(byte(f.Type))
		e.str16(f.Name)
	}
	e.wrote = true
}

// field checks that the next Put is a t in schema order and advances.
func (e *Encoder) field(t FieldType) bool {
	if e.err != nil {
		return false
	}
	if err := fieldCheck(e.schema, e.next, t); err != nil {
		e.fail(err)
		return false
	}
	e.next++
	return true
}

// Begin starts a record: the stream header first if nothing is written
// yet, then the record's sequence number and timestamp. Its fields follow,
// one Put per schema field in order, and End closes it. A Put of the wrong
// type, or a record left short, fails the encoder for good: the stream
// would hold a torn record.
func (e *Encoder) Begin(seq int64, at time.Time) {
	if e.err != nil {
		return
	}
	if e.next >= 0 {
		e.fail(errors.New("stream: Begin inside an open record"))
		return
	}
	if !e.wrote {
		e.writeHeader()
	}
	e.byte1(recordMarker)
	e.fixed(uint64(seq), 8)
	e.fixed(uint64(at.UnixNano()), 8)
	e.next = 0
}

// PutInt64 writes the record's next field, an int64.
func (e *Encoder) PutInt64(v int64) {
	if e.field(TInt64) {
		e.fixed(uint64(v), 8)
	}
}

// PutFloat64 writes the record's next field, a float64.
func (e *Encoder) PutFloat64(v float64) {
	if e.field(TFloat64) {
		e.fixed(math.Float64bits(v), 8)
	}
}

// PutBool writes the record's next field, a bool.
func (e *Encoder) PutBool(v bool) {
	if e.field(TBool) {
		b := byte(0)
		if v {
			b = 1
		}
		e.byte1(b)
	}
}

// PutString writes the record's next field, a string.
func (e *Encoder) PutString(s string) {
	if e.field(TString) && e.blob(len(s)) {
		e.str(s)
	}
}

// PutBytes writes the record's next field, a byte string.
func (e *Encoder) PutBytes(b []byte) {
	if e.field(TBytes) && e.blob(len(b)) {
		e.put(b)
	}
}

// End closes the record Begin opened and reports the encoder's first
// failure, if any.
func (e *Encoder) End() error {
	if e.err == nil && e.next != len(e.schema.Fields) {
		e.fail(fmt.Errorf("stream: record of %q closed after %d of %d fields", e.schema.Name, max(e.next, 0), len(e.schema.Fields)))
	}
	e.next = -1
	return e.err
}

// Encode appends one item to the stream (writing the header first if
// needed). The item's record must match the encoder's schema; one that
// does not is refused before anything is written.
func (e *Encoder) Encode(it Item) error {
	if it.Payload.Schema == nil || !it.Payload.Schema.Equal(*e.schema) {
		return fmt.Errorf("stream: item schema does not match encoder schema")
	}
	if err := it.Payload.Validate(); err != nil {
		return err
	}
	e.Begin(it.Seq, it.Time)
	for _, v := range it.Payload.Values {
		switch v := v.(type) {
		case int64:
			e.PutInt64(v)
		case float64:
			e.PutFloat64(v)
		case string:
			e.PutString(v)
		case []byte:
			e.PutBytes(v)
		case bool:
			e.PutBool(v)
		}
	}
	return e.End()
}

// Flush pushes buffered bytes to the underlying writer. Transports call
// this per message; file writers once at the end.
func (e *Encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// Decoder reads an FBS stream, discovering the schema from the wire.
type Decoder struct {
	r      *bufio.Reader
	schema *Schema
	// next is the schema position of the next Read, -1 outside a record.
	next int
	// err is the first failure inside a record; the stream is misaligned
	// behind it, so every later call returns it.
	err error
}

// NewDecoder wraps a reader; the schema is parsed lazily on first use.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r), next: -1}
}

// peek returns the next n bytes (n at most the reader's buffer size)
// without consuming them; the caller Discards what it used. Like
// io.ReadFull, it reports io.EOF only when the stream ended before the
// first byte and io.ErrUnexpectedEOF when it ended part-way.
func (d *Decoder) peek(n int) ([]byte, error) {
	p, err := d.r.Peek(n)
	if err == io.EOF && len(p) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return p, err
}

// view returns the next n bytes, consumed: a window on the reader's buffer,
// valid until the next read from the decoder, or a fresh copy when n is
// larger than that buffer.
func (d *Decoder) view(n int) ([]byte, error) {
	if n > d.r.Size() {
		p := make([]byte, n)
		_, err := io.ReadFull(d.r, p)
		return p, err
	}
	p, err := d.peek(n)
	if err != nil {
		return nil, err
	}
	d.r.Discard(n)
	return p, nil
}

// fixed reads an n-byte (n ≤ 8) little-endian unsigned integer.
func (d *Decoder) fixed(n int) (uint64, error) {
	p, err := d.peek(n)
	if err != nil {
		return 0, err
	}
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(p[i])
	}
	d.r.Discard(n)
	return v, nil
}

func (d *Decoder) str16() (string, error) {
	n, err := d.fixed(2)
	if err != nil {
		return "", err
	}
	p, err := d.view(int(n))
	return string(p), err
}

// Schema returns the stream's schema, reading the header if necessary.
func (d *Decoder) Schema() (*Schema, error) {
	if d.schema != nil {
		return d.schema, nil
	}
	// Only the magic's first byte may meet a clean end: a stream that stops
	// before its header is empty. Every later EOF in the header is a torn
	// frame and surfaces as io.ErrUnexpectedEOF, so callers never mistake a
	// truncated header for an empty stream.
	magic, err := d.peek(len(fbsMagic))
	if err != nil {
		return nil, err
	}
	if [4]byte(magic) != fbsMagic {
		return nil, fmt.Errorf("stream: bad magic %q", magic)
	}
	d.r.Discard(len(fbsMagic))
	version, err := d.r.ReadByte()
	if err != nil {
		return nil, corrupt(err)
	}
	if version != fbsVersion {
		return nil, fmt.Errorf("stream: unsupported FBS version %d", version)
	}
	name, err := d.str16()
	if err != nil {
		return nil, corrupt(err)
	}
	count, err := d.fixed(2)
	if err != nil {
		return nil, corrupt(err)
	}
	s := &Schema{Name: name}
	for i := 0; i < int(count); i++ {
		tb, err := d.r.ReadByte()
		if err != nil {
			return nil, corrupt(err)
		}
		fname, err := d.str16()
		if err != nil {
			return nil, corrupt(err)
		}
		s.Fields = append(s.Fields, Field{Name: fname, Type: FieldType(tb)})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	d.schema = s
	return s, nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = corrupt(err)
	}
}

// field checks that the next Read is a t in schema order and advances.
func (d *Decoder) field(t FieldType) bool {
	if d.err != nil {
		return false
	}
	if err := fieldCheck(d.schema, d.next, t); err != nil {
		d.fail(err)
		return false
	}
	d.next++
	return true
}

func (d *Decoder) u64() uint64 {
	v, err := d.fixed(8)
	if err != nil {
		d.fail(err)
	}
	return v
}

// blobLen reads a string or bytes field's length.
func (d *Decoder) blobLen() int {
	n, err := d.fixed(4)
	if err == nil && n > maxBlob {
		err = fmt.Errorf("stream: blob length %d exceeds limit", n)
	}
	if err != nil {
		d.fail(err)
	}
	return int(n)
}

// blob reads a string or bytes field and returns its bytes, valid until the
// next read.
func (d *Decoder) blob() []byte {
	n := d.blobLen()
	if d.err != nil {
		return nil
	}
	p, err := d.view(n)
	if err != nil {
		d.fail(err)
		return nil
	}
	return p
}

// Begin starts reading the next record and returns its sequence number and
// timestamp; its fields follow, one Read per schema field in order, and End
// closes it. io.EOF marks a clean end of stream. Inside a record every
// truncation is io.ErrUnexpectedEOF, and any failure — truncation, a Read
// of the wrong type, a record left short — fails the decoder for good.
func (d *Decoder) Begin() (seq int64, at time.Time, err error) {
	if _, err := d.Schema(); err != nil {
		return 0, time.Time{}, err
	}
	if d.err != nil {
		return 0, time.Time{}, d.err
	}
	if d.next >= 0 {
		d.fail(errors.New("stream: Begin inside an open record"))
		return 0, time.Time{}, d.err
	}
	marker, err := d.r.ReadByte()
	if err != nil {
		return 0, time.Time{}, err // io.EOF passes through
	}
	if marker != recordMarker {
		d.fail(fmt.Errorf("stream: bad record marker 0x%02x", marker))
		return 0, time.Time{}, d.err
	}
	d.next = 0
	seq, nanos := int64(d.u64()), int64(d.u64())
	if d.err != nil {
		return 0, time.Time{}, d.err
	}
	return seq, time.Unix(0, nanos).UTC(), nil
}

// ReadInt64 reads the record's next field, an int64.
func (d *Decoder) ReadInt64() int64 {
	if !d.field(TInt64) {
		return 0
	}
	return int64(d.u64())
}

// ReadFloat64 reads the record's next field, a float64.
func (d *Decoder) ReadFloat64() float64 {
	if !d.field(TFloat64) {
		return 0
	}
	return math.Float64frombits(d.u64())
}

// ReadBool reads the record's next field, a bool (any non-zero byte is
// true).
func (d *Decoder) ReadBool() bool {
	if !d.field(TBool) {
		return false
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.fail(err)
	}
	return b != 0
}

// ReadString reads the record's next field, a string: one allocation, none
// for the empty string.
func (d *Decoder) ReadString() string {
	if !d.field(TString) {
		return ""
	}
	return string(d.blob())
}

// ReadBytes reads the record's next field, a byte string, into one
// exact-size allocation the caller owns (non-nil even when empty).
func (d *Decoder) ReadBytes() []byte {
	if !d.field(TBytes) {
		return nil
	}
	n := d.blobLen()
	if d.err != nil {
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.fail(err)
		return nil
	}
	return b
}

// ReadView reads the record's next field, a string or a byte string,
// without copying it: the bytes are the decoder's and stay valid only until
// its next read. A caller that keeps them copies them (or interns them
// against values it already holds).
func (d *Decoder) ReadView() []byte {
	if !d.field(tBlob) {
		return nil
	}
	return d.blob()
}

// End closes the record Begin opened and reports the decoder's first
// failure, if any.
func (d *Decoder) End() error {
	if d.err == nil && (d.schema == nil || d.next != len(d.schema.Fields)) {
		d.fail(errors.New("stream: End without a complete record"))
	}
	d.next = -1
	return d.err
}

// Decode reads the next item. io.EOF marks a clean end of stream.
func (d *Decoder) Decode() (Item, error) {
	seq, at, err := d.Begin()
	if err != nil {
		return Item{}, err
	}
	values := make([]any, len(d.schema.Fields))
	for i, f := range d.schema.Fields {
		switch f.Type {
		case TInt64:
			values[i] = d.ReadInt64()
		case TFloat64:
			values[i] = d.ReadFloat64()
		case TString:
			values[i] = d.ReadString()
		case TBytes:
			values[i] = d.ReadBytes()
		case TBool:
			values[i] = d.ReadBool()
		}
	}
	if err := d.End(); err != nil {
		return Item{}, err
	}
	return Item{Seq: seq, Time: at, Payload: Record{Schema: d.schema, Values: values}}, nil
}

// fieldCheck reports whether a t may be written or read at schema position
// next (-1: no record is open).
func fieldCheck(s *Schema, next int, t FieldType) error {
	if next >= 0 && next < len(s.Fields) {
		if ft := s.Fields[next].Type; ft == t || t == tBlob && (ft == TString || ft == TBytes) {
			return nil
		}
	}
	want := "string or bytes"
	if t != tBlob {
		want = t.String()
	}
	return fmt.Errorf("stream: a %s field is out of %q's schema order at position %d", want, s.Name, next)
}

// corrupt converts a mid-record EOF into ErrUnexpectedEOF so callers can
// distinguish truncation from clean stream end.
func corrupt(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
