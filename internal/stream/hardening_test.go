package stream

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// TestDecoderTornFramesEveryOffset truncates a valid stream at every byte
// offset and pins the decoder's torn-frame contract deterministically (the
// fuzz test samples; this enumerates): items before the tear decode
// intact, the tear itself surfaces as io.ErrUnexpectedEOF except at clean
// item boundaries (io.EOF), and the decoder never fabricates a record.
func TestDecoderTornFramesEveryOffset(t *testing.T) {
	var pristine bytes.Buffer
	enc, err := NewEncoder(&pristine, sensorSchema())
	if err != nil {
		t.Fatal(err)
	}
	const items = 3
	for i := int64(0); i < items; i++ {
		rec, err := NewRecord(sensorSchema(), i, float64(i)*1.5, "sensor", []byte{byte(i), 0xFF}, i%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(Item{Seq: i, Time: time.Unix(i, 0), Payload: rec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	full := pristine.Bytes()

	// First find the clean boundaries: the offsets after the header and
	// after each complete item, where truncation looks like a shorter but
	// valid stream.
	clean := map[int]int{} // offset → items decodable there
	for cut := 0; cut <= len(full); cut++ {
		dec := NewDecoder(bytes.NewReader(full[:cut]))
		n := 0
		var finalErr error
		for {
			it, err := dec.Decode()
			if err != nil {
				finalErr = err
				break
			}
			// Anything decoded must be an intact prefix item.
			if it.Seq != int64(n) || it.Payload.Values[0].(int64) != int64(n) {
				t.Fatalf("cut=%d: item %d decoded as seq=%d values=%v", cut, n, it.Seq, it.Payload.Values)
			}
			if n++; n > items {
				t.Fatalf("cut=%d: decoder fabricated item %d of %d", cut, n, items)
			}
		}
		switch finalErr {
		case io.EOF:
			clean[cut] = n
		case io.ErrUnexpectedEOF:
			// The torn-frame signal: a frame started and the bytes ran out.
		default:
			t.Fatalf("cut=%d after %d items: got %v, want io.EOF or io.ErrUnexpectedEOF", cut, n, finalErr)
		}
	}
	// Exactly items+2 clean offsets exist: the empty stream, after the
	// header, and after each item (the full length included); every other
	// truncation is a torn frame.
	if len(clean) != items+2 {
		t.Fatalf("clean boundaries = %v, want %d of them", clean, items+2)
	}
	if n, ok := clean[len(full)]; !ok || n != items {
		t.Fatalf("full stream decodes %d items (clean=%v)", n, clean)
	}
}

// TestServerHandshakeDeadline pins the transport hardening: a connection
// that never completes its role handshake is closed by the server instead
// of pinning a handler goroutine forever.
func TestServerHandshakeDeadline(t *testing.T) {
	sched := NewScheduler()
	srv, err := NewServer(sched, sensorSchema())
	if err != nil {
		t.Fatal(err)
	}
	srv.timeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing. The server must give up and close the connection.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept a silent connection open")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("server took %v to drop the silent connection", elapsed)
	}
}
