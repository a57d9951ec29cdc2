// Package model implements the analytical results of §4.3 of the ParaCOSM
// paper: the two-level speedup model (Equations 1-3), the label-filtering
// estimate of the safe-update probability, and the complexity reference
// table (Table 1).
package model

// Params are the inputs of the speedup model.
type Params struct {
	Updates int     // |ΔG|
	Gamma   float64 // γ, ratio of safe updates
	TADS    float64 // per-update ADS maintenance time (arbitrary unit)
	TFM     float64 // per-update match enumeration time
	M       int     // threads for ADS maintenance
	N       int     // threads for match search
}

// totalTime evaluates Equation (1)/(2):
//
//	T = |ΔG| [ (1 + γ(1/M - 1)) T_ADS + ((1-γ)/N) T_FM ]
//
// Unsafe updates pay both T_ADS and T_FM/N; safe updates pay only the
// M-way-parallel ADS maintenance.
func totalTime(p Params) float64 {
	if p.M < 1 {
		p.M = 1
	}
	if p.N < 1 {
		p.N = 1
	}
	adsCoef := 1 + p.Gamma*(1/float64(p.M)-1)
	fmCoef := (1 - p.Gamma) / float64(p.N)
	return float64(p.Updates) * (adsCoef*p.TADS + fmCoef*p.TFM)
}

// Coefficients returns the (T_ADS, T_FM) multipliers of Equation (2). For
// the paper's worked example (N = M = 10, γ = 0.4) they are 0.64 and 0.06
// (Equation 3).
func Coefficients(p Params) (adsCoef, fmCoef float64) {
	if p.M < 1 {
		p.M = 1
	}
	if p.N < 1 {
		p.N = 1
	}
	return 1 + p.Gamma*(1/float64(p.M)-1), (1 - p.Gamma) / float64(p.N)
}

// Speedup returns the model's predicted speedup over single-threaded
// execution (M = N = 1) at the same γ: safe updates skip T_FM in both
// configurations, so the sequential baseline is γ·T_ADS + (1-γ)(T_ADS+T_FM).
func Speedup(p Params) float64 {
	seq := p
	seq.M, seq.N = 1, 1
	t := totalTime(p)
	if t == 0 {
		return 0
	}
	return totalTime(seq) / t
}

// SafeProbability estimates P(safe) via uniform-label filtering (§4.3):
// an inserted edge is unsafe only if its label triple matches one of the
// |E(Q)| query edges, each with probability 1/(|L_E|·|L_V|²).
func SafeProbability(queryEdges, vertexLabels, edgeLabels int) float64 {
	if vertexLabels < 1 {
		vertexLabels = 1
	}
	if edgeLabels < 1 {
		edgeLabels = 1
	}
	pUnsafe := float64(queryEdges) / (float64(edgeLabels) * float64(vertexLabels) * float64(vertexLabels))
	if pUnsafe > 1 {
		pUnsafe = 1
	}
	return 1 - pUnsafe
}

// Complexity describes one row of Table 1.
type Complexity struct {
	System     string
	Parallel   bool
	IndexCost  string // asymptotic ADS update cost per graph update
	SearchCost string // asymptotic match-finding cost
	Backtrack  bool   // true = backtracking search, false = join-based
}

// ReferenceTable returns the CPU rows of Table 1.
func ReferenceTable() []Complexity {
	return []Complexity{
		{System: "IncIsoMatch", Parallel: false, IndexCost: "recomputation", SearchCost: "n/a", Backtrack: true},
		{System: "SJ-Tree", Parallel: true, IndexCost: "O(|E(G)|^|E(Q)|)", SearchCost: "O(|E(G)|^|E(Q)|)", Backtrack: false},
		{System: "Graphflow", Parallel: true, IndexCost: "O(1)", SearchCost: "O(d(G)^|V(Q)|)", Backtrack: false},
		{System: "TurboFlux", Parallel: false, IndexCost: "O(|E(G)||V(Q)|)", SearchCost: "O(d(G)^|V(Q)|)", Backtrack: true},
		{System: "IEDyn", Parallel: false, IndexCost: "O(|E(G)||V(Q)|)", SearchCost: "O(d(G)^|V(Q)|)", Backtrack: true},
		{System: "Symbi", Parallel: false, IndexCost: "O(|E(G)||E(Q)|)", SearchCost: "O(d(G)^|V(Q)|)", Backtrack: true},
		{System: "RapidFlow", Parallel: true, IndexCost: "O(|E(G)||E(Q)|)", SearchCost: "O(d(G)^|V(Q)|)", Backtrack: true},
		{System: "Mnemonic", Parallel: true, IndexCost: "O(1)", SearchCost: "O(d(G)^|V(Q)|)", Backtrack: true},
		{System: "CaLiG", Parallel: false, IndexCost: "O(|E(G)||E(Q)|)", SearchCost: "O(|V(G)|^K)", Backtrack: true},
		{System: "NewSP", Parallel: false, IndexCost: "O(1)", SearchCost: "O(d(G)^|V(Q)|)", Backtrack: true},
	}
}
