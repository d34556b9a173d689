package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fairflow/internal/gauge"
)

func TestWorkflowJSONRoundTrip(t *testing.T) {
	w := twoStepWorkflow(highTiers(), "bed@v1", "gff3@v1")
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	back, err := LoadWorkflow(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != w.Name || len(back.Components) != 2 || len(back.Edges) != 1 {
		t.Fatalf("round trip: %+v", back)
	}
	prod, ok := back.Component("producer")
	if !ok {
		t.Fatal("producer lost")
	}
	if prod.Assessment.Vector.Get(gauge.DataSchema) != 3 {
		t.Fatalf("gauge vector lost: %s", prod.Assessment.Vector)
	}
	if prod.Ports[0].FormatID != "bed@v1" {
		t.Fatalf("port format lost: %+v", prod.Ports[0])
	}
}

func TestLoadWorkflowValidates(t *testing.T) {
	if _, err := LoadWorkflow(strings.NewReader("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	// Structurally valid JSON, semantically invalid workflow (no
	// components).
	if _, err := LoadWorkflow(strings.NewReader(`{"name":"x"}`)); err == nil {
		t.Fatal("invalid workflow accepted")
	}
}

func TestReferencedFormats(t *testing.T) {
	w := twoStepWorkflow(highTiers(), "bed@v1", "gff3@v1")
	got := w.ReferencedFormats()
	if len(got) != 2 || got[0] != "bed@v1" || got[1] != "gff3@v1" {
		t.Fatalf("formats: %v", got)
	}
}
