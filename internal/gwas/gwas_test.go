package gwas

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func smallConfig() Config {
	return Config{SNPs: 300, Samples: 250, CausalSNPs: 5, EffectSize: 1.0, MinMAF: 0.15, Seed: 11}
}

func TestGenerateShapeAndRanges(t *testing.T) {
	c, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.SNPs() != 300 || c.Samples() != 250 {
		t.Fatalf("shape = %d×%d", c.SNPs(), c.Samples())
	}
	for v, row := range c.Genotypes {
		for _, g := range row {
			if g < 0 || g > 2 {
				t.Fatalf("genotype out of range at SNP %d: %d", v, g)
			}
		}
		if c.MAF[v] < 0.15 || c.MAF[v] >= 0.5 {
			t.Fatalf("MAF out of range: %v", c.MAF[v])
		}
	}
	if len(c.Causal) != 5 {
		t.Fatalf("causal count = %d", len(c.Causal))
	}
	for i := 1; i < len(c.Causal); i++ {
		if c.Causal[i] <= c.Causal[i-1] {
			t.Fatal("causal indices not strictly ascending")
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{SNPs: 0, Samples: 10}); err == nil {
		t.Fatal("zero SNPs accepted")
	}
	if _, err := Generate(Config{SNPs: 5, Samples: 2}); err == nil {
		t.Fatal("two samples accepted")
	}
	if _, err := Generate(Config{SNPs: 5, Samples: 10, CausalSNPs: 9}); err == nil {
		t.Fatal("causal > SNPs accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(smallConfig())
	b, _ := Generate(smallConfig())
	if a.Phenotype[0] != b.Phenotype[0] || a.Genotypes[10][10] != b.Genotypes[10][10] {
		t.Fatal("same seed diverged")
	}
}

func TestSampleColumnMatchesMatrix(t *testing.T) {
	c, _ := Generate(smallConfig())
	col := strings.Split(strings.TrimSuffix(string(c.SampleColumnBytes(3)), "\n"), "\n")
	if len(col) != c.SNPs() {
		t.Fatalf("column length = %d", len(col))
	}
	for v, cell := range col {
		if cell != strconv.Itoa(int(c.Genotypes[v][3])) {
			t.Fatalf("cell %d mismatch: %q vs %d", v, cell, c.Genotypes[v][3])
		}
	}
}

func TestScanRecoversCausalSNPs(t *testing.T) {
	c, _ := Generate(smallConfig())
	assocs, err := Scan(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(assocs) != c.SNPs() {
		t.Fatalf("assoc count = %d", len(assocs))
	}
	if r := Recall(c, assocs, 10); r < 0.8 {
		t.Fatalf("recall@10 = %.2f, want ≥ 0.8 with effect size 1.0", r)
	}
}

func TestScanNullSNPsAreInsignificant(t *testing.T) {
	cfg := smallConfig()
	cfg.CausalSNPs = 0
	c, _ := Generate(cfg)
	assocs, _ := Scan(c)
	// Under the null, −log10(p) > 4 (p < 1e-4) should be very rare among
	// 300 SNPs.
	extreme := 0
	for _, a := range assocs {
		if a.NegLogP > 4 {
			extreme++
		}
	}
	if extreme > 2 {
		t.Fatalf("%d null SNPs look significant", extreme)
	}
}

func TestTopHitsSortedAndBounded(t *testing.T) {
	c, _ := Generate(smallConfig())
	assocs, _ := Scan(c)
	hits := TopHits(assocs, 20)
	if len(hits) != 20 {
		t.Fatalf("hits = %d", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].NegLogP > hits[i-1].NegLogP {
			t.Fatal("hits not sorted")
		}
	}
	if got := TopHits(assocs, 10_000); len(got) != len(assocs) {
		t.Fatalf("oversized k returned %d", len(got))
	}
	// TopHits must not mutate its input order.
	if assocs[0].SNP != 0 || assocs[1].SNP != 1 {
		t.Fatal("TopHits reordered the input slice")
	}
}

func TestNegLogPMonotoneInZ(t *testing.T) {
	f := func(raw uint16) bool {
		z := float64(raw) / 1000 // 0..65.5, crossing the asymptotic switch
		return negLogP(z+0.1) >= negLogP(z)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNegLogPKnownValues(t *testing.T) {
	// z=1.96 → two-sided p ≈ 0.05 → −log10 ≈ 1.30.
	if got := negLogP(1.96); math.Abs(got-1.30) > 0.02 {
		t.Fatalf("negLogP(1.96) = %v", got)
	}
	// z=0 → p=1 → 0.
	if got := negLogP(0); got != 0 {
		t.Fatalf("negLogP(0) = %v", got)
	}
	// Large z must stay finite and large.
	if got := negLogP(40); math.IsInf(got, 0) || got < 100 {
		t.Fatalf("negLogP(40) = %v", got)
	}
}

func TestRecallNoCausal(t *testing.T) {
	cfg := smallConfig()
	cfg.CausalSNPs = 0
	c, _ := Generate(cfg)
	assocs, _ := Scan(c)
	if Recall(c, assocs, 10) != 0 {
		t.Fatal("recall with no causal SNPs should be 0")
	}
}

func TestScanConstantGenotypeSNP(t *testing.T) {
	c, _ := Generate(smallConfig())
	// Force SNP 0 monomorphic; its association must be zero, not NaN.
	for s := range c.Genotypes[0] {
		c.Genotypes[0][s] = 1
	}
	assocs, err := Scan(c)
	if err != nil {
		t.Fatal(err)
	}
	a := assocs[0]
	if a.Beta != 0 || a.T != 0 || a.NegLogP != 0 {
		t.Fatalf("monomorphic SNP association: %+v", a)
	}
	if math.IsNaN(a.Beta) || math.IsNaN(a.NegLogP) {
		t.Fatal("NaN in monomorphic SNP")
	}
}
