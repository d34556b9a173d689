package annot

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fairflow/internal/schema"
)

func demoSet() *Set {
	return &Set{Features: []Feature{
		{Chrom: "chr1", Start: 100, End: 200, Name: "geneA", Score: 960,
			Strand: Plus, Type: "gene", Source: "test",
			Attributes: map[string]string{"biotype": "protein_coding"}},
		{Chrom: "chr1", Start: 150, End: 180, Name: "exonA1", Score: 500,
			Strand: Plus, Type: "exon", Source: "test"},
		{Chrom: "chr2", Start: 0, End: 50, Name: "geneB", Score: -1,
			Strand: Minus, Type: "gene", Source: "test"},
	}}
}

func TestFeatureValidate(t *testing.T) {
	bad := []Feature{
		{Start: 0, End: 10},                                 // no chrom
		{Chrom: "c", Start: -1, End: 10},                    // negative start
		{Chrom: "c", Start: 10, End: 5},                     // inverted
		{Chrom: "c", Start: 0, End: 1, Strand: Strand('x')}, // bad strand
	}
	for i, f := range bad {
		if f.Validate() == nil {
			t.Errorf("bad feature %d accepted", i)
		}
	}
	ok := Feature{Chrom: "c", Start: 5, End: 5, Strand: NoStrand} // empty interval fine
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetHelpers(t *testing.T) {
	s := demoSet()
	if s.Len() != 3 || s.TotalBases() != 100+30+50 {
		t.Fatalf("len=%d bases=%d", s.Len(), s.TotalBases())
	}
}

func TestBEDRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBED(&buf, demoSet()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBED(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 {
		t.Fatalf("features = %d", back.Len())
	}
	f := back.Features[0]
	if f.Chrom != "chr1" || f.Start != 100 || f.End != 200 || f.Name != "geneA" || f.Strand != Plus {
		t.Fatalf("feature: %+v", f)
	}
	// BED is lossy: type and attributes gone.
	if f.Type != "" || f.Attributes != nil {
		t.Fatal("BED carried type/attributes")
	}
}

func TestBEDSkipsHeadersAndComments(t *testing.T) {
	in := "track name=x\nbrowser position chr1\n# comment\nchr1\t0\t10\n"
	s, err := ReadBED(strings.NewReader(in))
	if err != nil || s.Len() != 1 {
		t.Fatalf("len=%d err=%v", s.Len(), err)
	}
}

func TestBEDRejectsCorruption(t *testing.T) {
	bad := []string{
		"chr1\t0\n",             // too few fields
		"chr1\tx\t10\n",         // bad start
		"chr1\t0\ty\n",          // bad end
		"chr1\t0\t10\tn\tbad\n", // bad score
		"chr1\t5\t2\n",          // inverted interval
	}
	for i, in := range bad {
		if _, err := ReadBED(strings.NewReader(in)); err == nil {
			t.Errorf("bad BED %d accepted", i)
		}
	}
}

func TestGFF3RoundTripPreservesEverything(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGFF3(&buf, demoSet()); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "##gff-version 3") {
		t.Fatal("missing GFF3 pragma")
	}
	back, err := ReadGFF3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := back.Features[0]
	if f.Start != 100 || f.End != 200 {
		t.Fatalf("coordinate conversion broken: %d..%d", f.Start, f.End)
	}
	if f.Type != "gene" || f.Attributes["biotype"] != "protein_coding" || f.Name != "geneA" {
		t.Fatalf("GFF3 lost metadata: %+v", f)
	}
	// Score absence round trips.
	if back.Features[2].Score != -1 {
		t.Fatalf("absent score became %v", back.Features[2].Score)
	}
}

func TestGFF3EscapingRoundTrip(t *testing.T) {
	s := &Set{Features: []Feature{{
		Chrom: "c", Start: 0, End: 5, Name: "weird;name=1", Score: -1, Strand: NoStrand,
		Type: "gene", Attributes: map[string]string{"note": "a;b=c"},
	}}}
	var buf bytes.Buffer
	if err := WriteGFF3(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGFF3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Features[0].Name != "weird;name=1" || back.Features[0].Attributes["note"] != "a;b=c" {
		t.Fatalf("escaping broken: %+v", back.Features[0])
	}
}

func TestGTF2RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGTF2(&buf, demoSet()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `gene_id "geneA"; transcript_id "geneA";`) {
		t.Fatalf("GTF2 attributes malformed:\n%s", buf.String())
	}
	back, err := ReadGTF2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := back.Features[0]
	if f.Start != 100 || f.End != 200 || f.Name != "geneA" {
		t.Fatalf("GTF2 round trip: %+v", f)
	}
	if f.Attributes["biotype"] != "protein_coding" {
		t.Fatalf("extra attribute lost: %v", f.Attributes)
	}
}

func TestGTF2RequiresGeneID(t *testing.T) {
	in := "chr1\tsrc\texon\t1\t10\t.\t+\t.\tfoo \"bar\";\n"
	if _, err := ReadGTF2(strings.NewReader(in)); err == nil {
		t.Fatal("GTF2 without gene_id accepted")
	}
}

func TestPSLRoundTripIntervals(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePSL(&buf, demoSet()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPSL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 {
		t.Fatalf("features = %d", back.Len())
	}
	f := back.Features[0]
	if f.Chrom != "chr1" || f.Start != 100 || f.End != 200 || f.Name != "geneA" {
		t.Fatalf("PSL interval: %+v", f)
	}
}

func TestPSLSkipsHeader(t *testing.T) {
	in := "psLayout version 3\n\nmatch\tmis-\n---------\n" +
		"100\t0\t0\t0\t0\t0\t0\t0\t+\tq1\t100\t0\t100\tchr9\t0\t500\t600\t1\t100,\t0,\t500,\n"
	s, err := ReadPSL(strings.NewReader(in))
	if err != nil || s.Len() != 1 || s.Features[0].Chrom != "chr9" {
		t.Fatalf("len=%d err=%v", s.Len(), err)
	}
}

func TestCoordinateConventionBEDvsGFF3(t *testing.T) {
	// The same interval must appear as BED 0-based [9,20) and GFF3 1-based
	// [10,20] — the classic off-by-one that hand-rolled converters get
	// wrong.
	s := &Set{Features: []Feature{{Chrom: "c", Start: 9, End: 20, Name: "x", Score: -1, Strand: Plus, Type: "gene"}}}
	var bed, gff bytes.Buffer
	WriteBED(&bed, s)
	WriteGFF3(&gff, s)
	if !strings.Contains(bed.String(), "c\t9\t20") {
		t.Fatalf("BED: %q", bed.String())
	}
	if !strings.Contains(gff.String(), "\t10\t20\t") {
		t.Fatalf("GFF3: %q", gff.String())
	}
}

func randomSet(rng *rand.Rand, n int) *Set {
	s := &Set{}
	strands := []Strand{Plus, Minus, NoStrand}
	for i := 0; i < n; i++ {
		start := rng.Int63n(1_000_000)
		s.Features = append(s.Features, Feature{
			Chrom:  "chr" + string(rune('1'+rng.Intn(5))),
			Start:  start,
			End:    start + 1 + rng.Int63n(10_000),
			Name:   "f" + string(rune('a'+rng.Intn(26))),
			Score:  float64(rng.Intn(1000)),
			Strand: strands[rng.Intn(3)],
			Type:   "gene",
		})
	}
	return s
}

func TestPropertyAllFormatsPreserveIntervals(t *testing.T) {
	type rt struct {
		name  string
		write func(*bytes.Buffer, *Set) error
		read  func(*bytes.Reader) (*Set, error)
	}
	rts := []rt{
		{"bed", func(b *bytes.Buffer, s *Set) error { return WriteBED(b, s) },
			func(r *bytes.Reader) (*Set, error) { return ReadBED(r) }},
		{"gff3", func(b *bytes.Buffer, s *Set) error { return WriteGFF3(b, s) },
			func(r *bytes.Reader) (*Set, error) { return ReadGFF3(r) }},
		{"gtf2", func(b *bytes.Buffer, s *Set) error { return WriteGTF2(b, s) },
			func(r *bytes.Reader) (*Set, error) { return ReadGTF2(r) }},
		{"psl", func(b *bytes.Buffer, s *Set) error { return WritePSL(b, s) },
			func(r *bytes.Reader) (*Set, error) { return ReadPSL(r) }},
	}
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSet(rng, int(nRaw)%20+1)
		for _, r := range rts {
			var buf bytes.Buffer
			if err := r.write(&buf, s); err != nil {
				return false
			}
			back, err := r.read(bytes.NewReader(buf.Bytes()))
			if err != nil || back.Len() != s.Len() {
				return false
			}
			for i := range s.Features {
				a, b := s.Features[i], back.Features[i]
				if a.Chrom != b.Chrom || a.Start != b.Start || a.End != b.End {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterFormatsEnablesPlanning(t *testing.T) {
	reg := schema.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	// Direct conversion exists between every pair.
	ids := []string{BEDID, GFF3ID, GTF2ID, PSLID}
	for _, from := range ids {
		for _, to := range ids {
			if from == to {
				continue
			}
			plan, err := reg.PlanConversion(from, to)
			if err != nil {
				t.Fatalf("%s → %s: %v", from, to, err)
			}
			if len(plan.Steps) != 1 {
				t.Fatalf("%s → %s took %d hops", from, to, len(plan.Steps))
			}
		}
	}
	// Lossiness: GFF3→BED lossy, BED→GFF3 not, GFF3→GTF2 not.
	p, _ := reg.PlanConversion(GFF3ID, BEDID)
	if !p.Lossy() {
		t.Fatal("GFF3→BED should be lossy")
	}
	p, _ = reg.PlanConversion(BEDID, GFF3ID)
	if p.Lossy() {
		t.Fatal("BED→GFF3 should be lossless")
	}
}

func TestRegisteredConverterExecutes(t *testing.T) {
	reg := schema.NewRegistry()
	if err := RegisterFormats(reg); err != nil {
		t.Fatal(err)
	}
	var gff bytes.Buffer
	if err := WriteGFF3(&gff, demoSet()); err != nil {
		t.Fatal(err)
	}
	plan, err := reg.PlanConversion(GFF3ID, BEDID)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Execute(gff.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadBED(bytes.NewReader(out.([]byte)))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 || back.Features[0].Start != 100 {
		t.Fatalf("converted BED: %+v", back.Features)
	}
}
