// Package datasets assembles the evaluation corpora of Table I: the
// homogeneous IFTTT graph dataset (6,000 labelled of which 1,473
// vulnerable, plus 10,000 unlabelled) and the heterogeneous five-platform
// dataset (12,758 labelled of which 3,828 vulnerable, plus 19,440
// unlabelled), along with the 600 online testbed graphs of Table II. Scale
// is configurable: the CI scale shrinks counts proportionally so the whole
// evaluation runs on a laptop, while FEXIOT_SCALE=paper reproduces the
// paper's exact counts.
package datasets

import (
	"os"

	"fexiot/internal/embed"
	"fexiot/internal/eventlog"
	"fexiot/internal/fusion"
	"fexiot/internal/graph"
	"fexiot/internal/rng"
	"fexiot/internal/rules"
)

// Scale selects dataset sizing.
type Scale struct {
	Name string
	// Labelled/unlabelled graph counts and vulnerable quotas per dataset.
	IFTTTLabeled     int
	IFTTTVulnerable  int
	IFTTTUnlabeled   int
	HeteroLabeled    int
	HeteroVulnerable int
	HeteroUnlabeled  int
	OnlineGraphs     int // Table II testbed graphs (half vulnerable)

	// Corpus/encoder sizing.
	Homes        int
	RulesPerHome int
	WordDim      int
	SentenceDim  int
}

// PaperScale reproduces Table I exactly.
func PaperScale() Scale {
	return Scale{
		Name:             "paper",
		IFTTTLabeled:     6000,
		IFTTTVulnerable:  1473,
		IFTTTUnlabeled:   10000,
		HeteroLabeled:    12758,
		HeteroVulnerable: 3828,
		HeteroUnlabeled:  19440,
		OnlineGraphs:     600,
		Homes:            400,
		RulesPerHome:     30,
		WordDim:          embed.PaperWordDim,
		SentenceDim:      embed.PaperSentenceDim,
	}
}

// CIScale shrinks the corpus ~8× and the embedding dims so the full
// pipeline runs in seconds; the labelled/vulnerable ratios of Table I are
// preserved.
func CIScale() Scale {
	return Scale{
		Name:             "ci",
		IFTTTLabeled:     750,
		IFTTTVulnerable:  184, // 1473/6000 of 750
		IFTTTUnlabeled:   1250,
		HeteroLabeled:    1600,
		HeteroVulnerable: 480, // 3828/12758 of 1600
		HeteroUnlabeled:  2430,
		OnlineGraphs:     120,
		Homes:            150,
		RulesPerHome:     25,
		WordDim:          48,
		SentenceDim:      64,
	}
}

// Active returns the scale selected by the FEXIOT_SCALE environment
// variable ("paper" or anything else → CI).
func Active() Scale {
	if os.Getenv("FEXIOT_SCALE") == "paper" {
		return PaperScale()
	}
	return CIScale()
}

// Dataset is one assembled corpus.
type Dataset struct {
	Name      string
	Labeled   []*graph.Graph
	Unlabeled []*graph.Graph
	Encoder   *embed.Encoder
	Pool      []*rules.Rule
}

// Vulnerable counts labelled vulnerable graphs.
func (d *Dataset) Vulnerable() int {
	n := 0
	for _, g := range d.Labeled {
		if g.Label {
			n++
		}
	}
	return n
}

// NodeRange returns the min and max node counts across all graphs.
func (d *Dataset) NodeRange() (min, max int) {
	min, max = 1<<30, 0
	for _, g := range append(append([]*graph.Graph{}, d.Labeled...), d.Unlabeled...) {
		if g.N() < min {
			min = g.N()
		}
		if g.N() > max {
			max = g.N()
		}
	}
	if min > max {
		min = 0
	}
	return
}

// BuildIFTTT assembles the homogeneous IFTTT dataset: every rule is an
// IFTTT applet, node features are word-space only.
func BuildIFTTT(sc Scale, seed int64) *Dataset {
	enc := embed.NewEncoder(sc.WordDim, sc.SentenceDim)
	p := rules.IFTTT
	pool := fusion.MultiHomePool(seed, sc.Homes, sc.RulesPerHome, &p)
	d := &Dataset{Name: "IFTTT", Encoder: enc, Pool: pool}
	b := fusion.NewBuilder(seed+1, enc)
	b.InjectPlatforms = []rules.Platform{rules.IFTTT}
	d.Labeled = sampleWithQuota(b, pool, sc.IFTTTLabeled, sc.IFTTTVulnerable)
	d.Unlabeled = sampleAny(b, pool, sc.IFTTTUnlabeled)
	return d
}

// BuildHetero assembles the heterogeneous five-platform dataset.
func BuildHetero(sc Scale, seed int64) *Dataset {
	enc := embed.NewEncoder(sc.WordDim, sc.SentenceDim)
	pool := fusion.MultiHomePool(seed, sc.Homes, sc.RulesPerHome, nil)
	d := &Dataset{Name: "Hetero", Encoder: enc, Pool: pool}
	b := fusion.NewBuilder(seed+1, enc)
	d.Labeled = sampleWithQuota(b, pool, sc.HeteroLabeled, sc.HeteroVulnerable)
	d.Unlabeled = sampleAny(b, pool, sc.HeteroUnlabeled)
	return d
}

// sampleWithQuota draws graphs until the labelled corpus holds exactly
// `total` graphs with `vulnerable` positives — the Table I class balance.
func sampleWithQuota(b *fusion.Builder, pool []*rules.Rule, total, vulnerable int) []*graph.Graph {
	benignQuota := total - vulnerable
	var out []*graph.Graph
	vuln, benign := 0, 0
	guard := 0
	for (vuln < vulnerable || benign < benignQuota) && guard < total*60 {
		guard++
		g := b.OfflineSized(pool)
		if g.Label && vuln < vulnerable {
			out = append(out, g)
			vuln++
		} else if !g.Label && benign < benignQuota {
			out = append(out, g)
			benign++
		}
	}
	return out
}

// sampleAny draws graphs without quota (the unlabelled corpora).
func sampleAny(b *fusion.Builder, pool []*rules.Rule, total int) []*graph.Graph {
	out := make([]*graph.Graph, total)
	for i := range out {
		out[i] = b.OfflineSized(pool)
	}
	return out
}

// Shuffled returns a deterministic permutation of the labelled graphs.
func (d *Dataset) Shuffled(seed int64) []*graph.Graph {
	out := append([]*graph.Graph(nil), d.Labeled...)
	rng.New(seed).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestbedWindows simulates n additional windows of an existing deployment
// (half attacked), used as training material disjoint from the test
// windows.
func TestbedWindows(deployed []*rules.Rule, enc *embed.Encoder, seed int64, n int) []*fusion.OnlineSample {
	return testbedWindows(fusion.NewBuilder(seed+1, enc), rng.New(seed+3), deployed, seed, 29, n)
}

// BuildTestbed produces the Table II online graphs following the paper's
// testbed: ONE volunteer deployment ("a volunteer deploys the off-the-shelf
// smart devices in a house"), simulated over many independent time windows;
// half the windows are compromised by attacks cycling through the five
// HAWatcher classes, giving the paper's 300/600 vulnerable split. It also
// returns the encoder and the deployment itself.
func BuildTestbed(sc Scale, seed int64) ([]*fusion.OnlineSample, *embed.Encoder, []*rules.Rule) {
	enc := embed.NewEncoder(sc.WordDim, sc.SentenceDim)
	b := fusion.NewBuilder(seed+11, enc)
	r := rng.New(seed + 13)

	// Pick a deployment whose full offline interaction graph is benign, so
	// window labels are purely "was this window attacked" — the paper's
	// 300 vulnerable graphs come from the simulated attacks.
	var deployed []*rules.Rule
	for trial := int64(0); ; trial++ {
		gen := rules.NewGenerator(seed+trial*31, rules.Archetypes()[4], "t")
		cand := gen.RuleSet(16)
		g := b.Offline(cand, len(cand))
		if !g.Label || trial > 60 {
			deployed = cand
			break
		}
	}
	return testbedWindows(b, r, deployed, seed, 17, sc.OnlineGraphs), enc, deployed
}

// testbedWindows simulates n windows of the deployment, window i from
// simulator seed seed+i·stride, cleans each log, compromises every odd
// window with the next attack class at an intensity drawn from r, and fuses
// each window's online graph with b.
func testbedWindows(b *fusion.Builder, r *rng.RNG, deployed []*rules.Rule, seed, stride int64, n int) []*fusion.OnlineSample {
	var out []*fusion.OnlineSample
	for i := 0; i < n; i++ {
		sim := eventlog.NewSimulator(deployed, seed+int64(i)*stride)
		log := eventlog.Clean(sim.Run(1500))
		sample := &fusion.OnlineSample{Log: log}
		if i%2 == 1 {
			attack := eventlog.Attack(i % int(eventlog.NumAttacks))
			sample.Attacked = true
			sample.Attack = attack
			sample.Log = eventlog.Inject(log, attack, deployed, 0.2+0.2*r.Float64(), seed+int64(i))
		}
		sample.Graph = b.BuildOnline(deployed, sample.Log)
		out = append(out, sample)
	}
	return out
}
