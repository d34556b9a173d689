// Package annot implements the genome-annotation data-wrangling substrate of
// the paper's Section II-A motivation: "genome annotations can be in BED,
// GTF2, GFF3, or PSL formats... In cases where automated conversion tools do
// not exist, the researcher may create their own [which] can come at a time
// and monetary cost, and often custom tools are poorly tested."
//
// This package is the tested, registered alternative: a common in-memory
// annotation model, parsers and writers for BED6, GFF3, GTF2 and a PSL
// subset, and converters that plug into the schema registry so the core
// automation planner can synthesise conversion pipelines instead of humans
// writing one-off scripts.
//
// Coordinate conventions are handled explicitly — the classic silent-bug
// source: BED and PSL are 0-based half-open; GFF3 and GTF2 are 1-based
// closed. The in-memory model is 0-based half-open (BED-style).
package annot

import (
	"fmt"
	"strings"
)

// Strand of a feature.
type Strand byte

// Strand values.
const (
	Plus     Strand = '+'
	Minus    Strand = '-'
	NoStrand Strand = '.'
)

// ParseStrand validates a strand field.
func ParseStrand(s string) (Strand, error) {
	switch s {
	case "+":
		return Plus, nil
	case "-":
		return Minus, nil
	case ".", "":
		return NoStrand, nil
	default:
		return NoStrand, fmt.Errorf("annot: invalid strand %q", s)
	}
}

// Feature is one annotation interval in the common model: 0-based,
// half-open [Start, End).
type Feature struct {
	Chrom string
	Start int64 // 0-based inclusive
	End   int64 // exclusive
	Name  string
	// Score in [0, 1000] by BED convention; -1 means absent.
	Score  float64
	Strand Strand
	// Type is the feature type (GFF3 column 3, e.g. "gene", "exon");
	// empty for formats that do not carry one.
	Type string
	// Source is the annotation source (GFF3/GTF2 column 2).
	Source string
	// Attributes carries format-specific key/value payload (GFF3 column 9
	// tags, GTF2 gene_id/transcript_id, ...).
	Attributes map[string]string
}

// Validate checks interval sanity.
func (f Feature) Validate() error {
	if f.Chrom == "" {
		return fmt.Errorf("annot: feature needs a chromosome")
	}
	if f.Start < 0 {
		return fmt.Errorf("annot: feature %s has negative start %d", f.Name, f.Start)
	}
	if f.End < f.Start {
		return fmt.Errorf("annot: feature %s has end %d before start %d", f.Name, f.End, f.Start)
	}
	switch f.Strand {
	case Plus, Minus, NoStrand:
	default:
		return fmt.Errorf("annot: feature %s has invalid strand %q", f.Name, f.Strand)
	}
	return nil
}

// Length returns the interval length.
func (f Feature) Length() int64 { return f.End - f.Start }

// attr fetches an attribute with a default.
func (f Feature) attr(key, def string) string {
	if v, ok := f.Attributes[key]; ok {
		return v
	}
	return def
}

// Set is an ordered collection of features.
type Set struct {
	Features []Feature
}

// Len reports the number of features.
func (s *Set) Len() int { return len(s.Features) }

// TotalBases sums interval lengths (no overlap merging).
func (s *Set) TotalBases() int64 {
	var n int64
	for _, f := range s.Features {
		n += f.Length()
	}
	return n
}

// escapeGFF3 percent-encodes the characters GFF3 reserves in column 9.
func escapeGFF3(s string) string {
	r := strings.NewReplacer(
		";", "%3B", "=", "%3D", "&", "%26", ",", "%2C", "%", "%25",
	)
	return r.Replace(s)
}

// unescapeGFF3 reverses escapeGFF3 for the common encodings.
func unescapeGFF3(s string) string {
	r := strings.NewReplacer(
		"%3B", ";", "%3D", "=", "%26", "&", "%2C", ",", "%25", "%",
		"%3b", ";", "%3d", "=",
	)
	return r.Replace(s)
}
