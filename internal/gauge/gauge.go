// Package gauge implements the paper's primary contribution: the six gauge
// properties for reusable workflows (Section III, Fig. 1). Three gauges
// describe the data side of a workflow component — access, schema, and
// semantics — and three describe the software side — granularity,
// customizability, and provenance.
//
// A gauge is deliberately not a metric: it is an ordered category axis along
// which the reusability of a component progresses, rather than a score that
// ranks arbitrary workflows against one another. Each tier on each gauge is
// specific, testable metadata; the higher the tier, the more of the
// component's reuse mechanics an automated system can take over, and the less
// technical debt is serviced by humans.
package gauge

import (
	"fmt"
	"sort"
)

// Axis identifies one of the six gauge properties.
type Axis string

// The six gauge axes from Box I of the paper.
const (
	DataAccess      Axis = "data-access"
	DataSchema      Axis = "data-schema"
	DataSemantics   Axis = "data-semantics"
	Granularity     Axis = "software-granularity"
	Customizability Axis = "software-customizability"
	Provenance      Axis = "software-provenance"
)

// Axes lists all six gauges in the paper's presentation order: the three
// data gauges followed by the three software gauges.
func Axes() []Axis {
	return []Axis{DataAccess, DataSchema, DataSemantics, Granularity, Customizability, Provenance}
}

// IsData reports whether the axis is one of the three data gauges.
func (a Axis) IsData() bool {
	return a == DataAccess || a == DataSchema || a == DataSemantics
}

// IsSoftware reports whether the axis is one of the three software gauges.
func (a Axis) IsSoftware() bool {
	return a == Granularity || a == Customizability || a == Provenance
}

// Valid reports whether the axis is one of the six defined gauges.
func (a Axis) Valid() bool {
	return a.IsData() || a.IsSoftware()
}

// Tier is a level on a gauge axis. Tier 0 ("unknown") always means that
// nothing is recorded for the axis; higher tiers add explicitness. Tiers are
// ordered within an axis but deliberately not comparable across axes.
type Tier int

// TierInfo describes one level of one gauge: its rank on the axis, a short
// stable name usable in metadata documents, a human description, and the
// ontology terms the tier makes machine-queriable (Section III-A: each gauge
// "defines an ontology of terms that can be mapped into machine-queriable
// form").
type TierInfo struct {
	Axis        Axis     `json:"axis"`
	Tier        Tier     `json:"tier"`
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Terms       []string `json:"terms,omitempty"`
	// Requires lists cross-gauge dependencies: minimum tiers on other axes
	// that must hold before this tier is meaningful. The paper's example: a
	// useful SQL-query tier on data access requires a minimal degree of data
	// schema characterisation.
	Requires map[Axis]Tier `json:"requires,omitempty"`
}

// tierTable is the registry of gauge levels, transcribed from Fig. 1 and the
// Section III prose. The lists are explicitly non-exhaustive in the paper;
// downstream ecosystems are expected to refine the model by extending them.
var tierTable = map[Axis][]TierInfo{
	DataAccess: {
		{Axis: DataAccess, Tier: 0, Name: "unknown",
			Description: "Nothing is recorded about how the data is reached."},
		{Axis: DataAccess, Tier: 1, Name: "protocol",
			Description: "The basic access protocol is known (e.g. POSIX file, zeroMQ queue, TCP socket).",
			Terms:       []string{"posix-file", "zeromq-queue", "tcp-socket", "database-connection", "in-memory"}},
		{Axis: DataAccess, Tier: 2, Name: "interface",
			Description: "The data I/O interface or library is known (e.g. CSV reader, HDF5, ADIOS, mySQL).",
			Terms:       []string{"csv", "json-lines", "hdf5", "adios", "mysql", "fbs"}},
		{Axis: DataAccess, Tier: 3, Name: "query-model",
			Description: "The supported query model is captured (linear access, random element access, SQL query).",
			Terms:       []string{"linear-scan", "random-access", "sql-query", "windowed-read"},
			Requires:    map[Axis]Tier{DataSchema: 1}},
	},
	DataSchema: {
		{Axis: DataSchema, Tier: 0, Name: "unknown",
			Description: "The format of produced/consumed data is unrecorded; it is an opaque string of bytes."},
		{Axis: DataSchema, Tier: 1, Name: "format-family",
			Description: "The format family is known: human-readable ASCII (CSV, JSON), self-describing binary (ADIOS, HDF5), or custom binary (e.g. MatML).",
			Terms:       []string{"ascii", "self-describing-binary", "custom-binary"}},
		{Axis: DataSchema, Tier: 2, Name: "structure",
			Description: "The logical structure is captured: typed arrays, tables, graphs, meshes.",
			Terms:       []string{"byte-stream", "typed-array", "table", "graph", "mesh", "image-stack"}},
		{Axis: DataSchema, Tier: 3, Name: "full-schema",
			Description: "A complete machine-readable schema (field names, types, shapes, units) is attached, enabling automated format conversion and templatized configuration.",
			Terms:       []string{"field-types", "dimensions", "units", "conversion-source"}},
	},
	DataSemantics: {
		{Axis: DataSemantics, Tier: 0, Name: "unknown",
			Description: "Nothing is recorded about intended production or consumption semantics."},
		{Axis: DataSemantics, Tier: 1, Name: "consumption-model",
			Description: "Ordering and consumption granularity are captured: is ordering important, are items consumed in a window or element by element?",
			Terms:       []string{"ordered", "unordered", "element-wise", "windowed", "first-precious"}},
		{Axis: DataSemantics, Tier: 2, Name: "data-fusion",
			Description: "Automatable format transactions are captured (the paper's 'data fusion' category): merges, joins, summarisation relationships between streams.",
			Terms:       []string{"merge", "join", "summarize", "broadcast"}},
		{Axis: DataSemantics, Tier: 3, Name: "format-evolution",
			Description: "Format version lineage is recorded, capturing the conversions that take a format back to an earlier version.",
			Terms:       []string{"version-lineage", "downgrade-path", "upgrade-path"}},
		{Axis: DataSemantics, Tier: 4, Name: "dataset-semantics",
			Description: "Dataset-level meaning is explicit: how individual elements combine into a complete dataset (e.g. labelled cancerous/healthy tissue images for a segmentation training set).",
			Terms:       []string{"label-classes", "train-test-role", "cohort-membership"}},
	},
	Granularity: {
		{Axis: Granularity, Tier: 0, Name: "black-box",
			Description: "The component is an undifferentiated bundle; the whole multi-tier operation is described as a single opaque unit."},
		{Axis: Granularity, Tier: 1, Name: "component-scale",
			Description: "The scale of the constituent components is identified: code fragment, individual executable, bundled workflow, or internal service.",
			Terms:       []string{"code-fragment", "executable", "bundled-workflow", "internal-service"}},
		{Axis: Granularity, Tier: 2, Name: "configuration-explicit",
			Description: "Configuration support is explicit, allowing templates for building, launching, and executing the component.",
			Terms:       []string{"build-template", "launch-template", "execution-template"}},
		{Axis: Granularity, Tier: 3, Name: "io-semantics",
			Description: "The I/O semantics of the component are captured (e.g. the 'first precious' pattern where the first element calibrates deltas for the rest), leveraging the data schema and semantics gauges.",
			Terms:       []string{"io-contract", "first-precious", "stateless", "stateful-stream"},
			Requires:    map[Axis]Tier{DataSchema: 2, DataSemantics: 1}},
	},
	Customizability: {
		{Axis: Customizability, Tier: 0, Name: "fixed",
			Description: "No customization points are recorded; reuse requires editing the component itself."},
		{Axis: Customizability, Tier: 1, Name: "variables-identified",
			Description: "The configuration characteristics that can be modified are packaged explicitly: the subset of variables relevant to customizing the component for a new use.",
			Terms:       []string{"config-variable", "default-value", "legal-range"}},
		{Axis: Customizability, Tier: 2, Name: "machine-actionable-model",
			Description: "Variable identification is formalised into a machine-actionable model (the Skel approach): a concise model of user decisions drives regeneration of the implementation.",
			Terms:       []string{"generation-model", "template-binding", "regenerable"}},
		{Axis: Customizability, Tier: 3, Name: "model-parameterization",
			Description: "The customization profile records how variables relate to one another and how they change in a campaign context (links to the Provenance gauge's campaign-knowledge tier).",
			Terms:       []string{"variable-relation", "sweep-axis", "campaign-binding"},
			Requires:    map[Axis]Tier{Provenance: 2}},
	},
	Provenance: {
		{Axis: Provenance, Tier: 0, Name: "none",
			Description: "No provenance is gathered."},
		{Axis: Provenance, Tier: 1, Name: "execution-logs",
			Description: "Standard provenance data and logs exist for each component and execution instance.",
			Terms:       []string{"run-record", "input-digest", "output-digest", "environment-capture"}},
		{Axis: Provenance, Tier: 2, Name: "campaign-knowledge",
			Description: "Explicit context for the campaign in which each execution took place, enabling summaries and queries over heterogeneous provenance logs.",
			Terms:       []string{"campaign-id", "sweep-point", "cross-run-query"}},
		{Axis: Provenance, Tier: 3, Name: "exportability",
			Description: "Policies track which gathered provenance is amenable and relevant for inclusion in a distributable, reusable research object.",
			Terms:       []string{"export-policy", "redaction-rule", "reuse-context"}},
	},
}

// Levels returns the registered tiers for an axis in ascending tier order.
// The returned slice is a copy; mutating it does not affect the registry.
func Levels(a Axis) []TierInfo {
	ts := tierTable[a]
	out := make([]TierInfo, len(ts))
	copy(out, ts)
	return out
}

// MaxTier returns the highest registered tier for the axis, or -1 if the
// axis is unknown.
func MaxTier(a Axis) Tier {
	ts := tierTable[a]
	if len(ts) == 0 {
		return -1
	}
	return ts[len(ts)-1].Tier
}

// Info returns the TierInfo for (axis, tier).
func Info(a Axis, t Tier) (TierInfo, error) {
	for _, ti := range tierTable[a] {
		if ti.Tier == t {
			return ti, nil
		}
	}
	return TierInfo{}, fmt.Errorf("gauge: no tier %d on axis %q", t, a)
}

// TierByName resolves a tier on an axis by its stable name.
func TierByName(a Axis, name string) (Tier, error) {
	for _, ti := range tierTable[a] {
		if ti.Name == name {
			return ti.Tier, nil
		}
	}
	return 0, fmt.Errorf("gauge: axis %q has no tier named %q", a, name)
}

// TermIndex maps every registered ontology term to the (axis, tier) pairs
// that introduce it. This is the machine-queriable form of the gauge
// ontology: automation asks "which tier gives me term X?".
func TermIndex() map[string][]TierInfo {
	idx := map[string][]TierInfo{}
	for _, a := range Axes() {
		for _, ti := range tierTable[a] {
			for _, term := range ti.Terms {
				idx[term] = append(idx[term], ti)
			}
		}
	}
	for term := range idx {
		sort.Slice(idx[term], func(i, j int) bool {
			if idx[term][i].Axis != idx[term][j].Axis {
				return idx[term][i].Axis < idx[term][j].Axis
			}
			return idx[term][i].Tier < idx[term][j].Tier
		})
	}
	return idx
}
