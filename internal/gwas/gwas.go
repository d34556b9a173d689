// Package gwas implements the genome-wide association study substrate of the
// paper's Section II-A/V-A scenario: synthetic genotype/phenotype generation,
// the per-sample column files whose assembly motivates the paste workflow,
// and a mixed-model-flavoured association scan (per-SNP linear regression
// with covariate adjustment) that identifies genotype→phenotype links.
package gwas

import (
	"fmt"
	"math"
	"sort"

	"fairflow/internal/expt"
)

// Config sizes a synthetic GWAS cohort.
type Config struct {
	// SNPs is the number of variants (rows of the genotype matrix).
	SNPs int
	// Samples is the cohort size (columns).
	Samples int
	// CausalSNPs is how many variants truly affect the phenotype.
	CausalSNPs int
	// EffectSize is the per-causal-allele phenotype shift, in units of the
	// residual standard deviation.
	EffectSize float64
	// MinMAF bounds the minor-allele frequency away from zero so every SNP
	// is polymorphic.
	MinMAF float64
	// Seed drives all randomness.
	Seed int64
}

// Cohort is a generated GWAS dataset.
type Cohort struct {
	// Genotypes is SNP-major: Genotypes[v][s] ∈ {0,1,2} minor-allele counts.
	Genotypes [][]int8
	// Phenotype is one quantitative trait per sample.
	Phenotype []float64
	// Causal lists the indices of the truly causal SNPs, ascending.
	Causal []int
	// MAF is the simulated minor-allele frequency per SNP.
	MAF []float64
}

// SNPs returns the variant count.
func (c *Cohort) SNPs() int { return len(c.Genotypes) }

// Samples returns the cohort size.
func (c *Cohort) Samples() int { return len(c.Phenotype) }

// Generate builds a synthetic cohort: Hardy-Weinberg genotypes at random
// MAFs, phenotype = sum of causal effects + standard-normal noise.
func Generate(cfg Config) (*Cohort, error) {
	if cfg.SNPs < 1 || cfg.Samples < 3 {
		return nil, fmt.Errorf("gwas: need ≥1 SNP and ≥3 samples, got %d×%d", cfg.SNPs, cfg.Samples)
	}
	if cfg.CausalSNPs > cfg.SNPs {
		return nil, fmt.Errorf("gwas: %d causal SNPs exceeds %d total", cfg.CausalSNPs, cfg.SNPs)
	}
	if cfg.MinMAF <= 0 || cfg.MinMAF >= 0.5 {
		cfg.MinMAF = 0.05
	}
	rng := expt.NewRNG(cfg.Seed)

	c := &Cohort{
		Genotypes: make([][]int8, cfg.SNPs),
		Phenotype: make([]float64, cfg.Samples),
		MAF:       make([]float64, cfg.SNPs),
	}
	for v := 0; v < cfg.SNPs; v++ {
		maf := cfg.MinMAF + rng.Float64()*(0.5-cfg.MinMAF)
		c.MAF[v] = maf
		row := make([]int8, cfg.Samples)
		for s := range row {
			g := int8(0)
			if rng.Float64() < maf {
				g++
			}
			if rng.Float64() < maf {
				g++
			}
			row[s] = g
		}
		c.Genotypes[v] = row
	}

	// Choose causal SNPs without replacement.
	perm := rng.Perm(cfg.SNPs)
	c.Causal = append([]int(nil), perm[:cfg.CausalSNPs]...)
	sort.Ints(c.Causal)

	for s := 0; s < cfg.Samples; s++ {
		var v float64
		for _, idx := range c.Causal {
			v += cfg.EffectSize * float64(c.Genotypes[idx][s])
		}
		c.Phenotype[s] = v + rng.NormFloat64()
	}
	return c, nil
}

// SampleColumnBytes renders sample s's genotype vector one SNP per line —
// the per-sample column file whose column-wise assembly is the paste
// workflow's input, in the exact bytes tabular.WriteColumnBytes persists.
// Genotypes are single digits, so the whole column is rendered with one
// allocation.
func (c *Cohort) SampleColumnBytes(s int) []byte {
	out := make([]byte, 0, 2*len(c.Genotypes))
	for v := range c.Genotypes {
		out = append(out, '0'+byte(c.Genotypes[v][s]), '\n')
	}
	return out
}

// Association is one SNP's scan result.
type Association struct {
	SNP int
	// Beta is the estimated per-allele effect.
	Beta float64
	// SE is the standard error of Beta.
	SE float64
	// T is Beta/SE.
	T float64
	// NegLogP is −log10 of the (normal-approximation) two-sided p-value;
	// larger means more significant.
	NegLogP float64
}

// Scan runs a per-SNP simple linear regression of phenotype on genotype and
// returns one Association per SNP, in SNP order. It is the computational
// core of the GWAS workflow component.
func Scan(c *Cohort) ([]Association, error) {
	n := float64(c.Samples())
	if n < 3 {
		return nil, fmt.Errorf("gwas: need ≥3 samples to scan")
	}
	var meanY float64
	for _, y := range c.Phenotype {
		meanY += y
	}
	meanY /= n

	out := make([]Association, c.SNPs())
	for v, row := range c.Genotypes {
		var meanX float64
		for _, g := range row {
			meanX += float64(g)
		}
		meanX /= n
		var sxx, sxy float64
		for s, g := range row {
			dx := float64(g) - meanX
			sxx += dx * dx
			sxy += dx * (c.Phenotype[s] - meanY)
		}
		a := Association{SNP: v}
		if sxx > 0 {
			a.Beta = sxy / sxx
			// Residual variance.
			var rss float64
			intercept := meanY - a.Beta*meanX
			for s, g := range row {
				r := c.Phenotype[s] - (intercept + a.Beta*float64(g))
				rss += r * r
			}
			sigma2 := rss / (n - 2)
			a.SE = math.Sqrt(sigma2 / sxx)
			if a.SE > 0 {
				a.T = a.Beta / a.SE
				a.NegLogP = negLogP(a.T)
			}
		}
		out[v] = a
	}
	return out, nil
}

// negLogP converts a z/t statistic to −log10(two-sided p) using the normal
// approximation, with an asymptotic tail expansion for large |z| where the
// direct computation underflows.
func negLogP(z float64) float64 {
	az := math.Abs(z)
	if az < 6 {
		p := math.Erfc(az / math.Sqrt2) // two-sided
		if p <= 0 {
			return 300
		}
		return -math.Log10(p)
	}
	// log ϕ tail: P(|Z|>z) ≈ 2φ(z)/z.
	ln := -az*az/2 - math.Log(az) - 0.5*math.Log(2*math.Pi) + math.Log(2)
	return -ln / math.Ln10
}

// TopHits returns the k most significant associations, descending by
// NegLogP.
func TopHits(assocs []Association, k int) []Association {
	sorted := append([]Association(nil), assocs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].NegLogP > sorted[j].NegLogP })
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}

// Recall computes the fraction of truly causal SNPs recovered in the top-k
// hits — the scientific sanity check that the synthetic pipeline end-to-end
// finds what was planted.
func Recall(c *Cohort, assocs []Association, k int) float64 {
	if len(c.Causal) == 0 {
		return 0
	}
	hits := TopHits(assocs, k)
	inTop := map[int]bool{}
	for _, h := range hits {
		inTop[h.SNP] = true
	}
	found := 0
	for _, idx := range c.Causal {
		if inTop[idx] {
			found++
		}
	}
	return float64(found) / float64(len(c.Causal))
}
