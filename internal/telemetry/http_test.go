package telemetry

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestDebugMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cas.action_hits").Add(3)
	tr := NewTracer()
	_, sp := tr.Start(context.Background(), "campaign")
	sp.End()

	srv := httptest.NewServer(NewDebugMux(reg, tr))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "cas_action_hits 3") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/telemetry.json"); code != 200 || !strings.Contains(body, `"campaign"`) {
		t.Fatalf("/telemetry.json: code=%d body=%q", code, body)
	}
	if code, body := get("/trace.json"); code != 200 || !strings.Contains(body, `"traceEvents"`) {
		t.Fatalf("/trace.json: code=%d body=%q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d body=%q", code, body)
	}
}

func TestStartDebugServer(t *testing.T) {
	d, err := StartDebugServer("127.0.0.1:0", NewRegistry(), NewTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer d.srv.Close()
	resp, err := http.Get("http://" + d.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
