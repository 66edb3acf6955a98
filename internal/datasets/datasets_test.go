package datasets

import (
	"os"
	"testing"
)

// tinyScale keeps the quota machinery exercised while staying fast.
func tinyScale() Scale {
	return Scale{
		Name:             "tiny",
		IFTTTLabeled:     60,
		IFTTTVulnerable:  15,
		IFTTTUnlabeled:   20,
		HeteroLabeled:    60,
		HeteroVulnerable: 18,
		HeteroUnlabeled:  20,
		OnlineGraphs:     10,
		Homes:            20,
		RulesPerHome:     20,
		WordDim:          24,
		SentenceDim:      32,
	}
}

func TestBuildIFTTTQuotas(t *testing.T) {
	sc := tinyScale()
	d := BuildIFTTT(sc, 1)
	if len(d.Labeled) != sc.IFTTTLabeled {
		t.Fatalf("labeled %d want %d", len(d.Labeled), sc.IFTTTLabeled)
	}
	if got := d.Vulnerable(); got != sc.IFTTTVulnerable {
		t.Fatalf("vulnerable %d want %d", got, sc.IFTTTVulnerable)
	}
	if len(d.Unlabeled) != sc.IFTTTUnlabeled {
		t.Fatalf("unlabeled %d", len(d.Unlabeled))
	}
	min, max := d.NodeRange()
	if min < 2 || max > 50 {
		t.Fatalf("node range %d-%d outside [2,50]", min, max)
	}
	// Homogeneity: all labelled graphs word-space IFTTT rules.
	for _, g := range d.Labeled {
		for _, n := range g.Nodes {
			if n.Rule.Platform.String() != "IFTTT" {
				t.Fatal("IFTTT dataset contains foreign platform rules")
			}
		}
	}
}

func TestBuildHeteroMixesPlatforms(t *testing.T) {
	sc := tinyScale()
	d := BuildHetero(sc, 2)
	if got := d.Vulnerable(); got != sc.HeteroVulnerable {
		t.Fatalf("vulnerable %d want %d", got, sc.HeteroVulnerable)
	}
	platforms := map[string]bool{}
	for _, g := range d.Labeled {
		for _, n := range g.Nodes {
			platforms[n.Rule.Platform.String()] = true
		}
	}
	if len(platforms) < 3 {
		t.Fatalf("hetero dataset covers only %v", platforms)
	}
}

func TestShuffledDeterministic(t *testing.T) {
	sc := tinyScale()
	d := BuildIFTTT(sc, 3)
	a := d.Shuffled(9)
	b := d.Shuffled(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("shuffle not deterministic")
		}
	}
	c := d.Shuffled(10)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds should differ")
	}
}

func TestBuildOnlineSamples(t *testing.T) {
	sc := tinyScale()
	samples, _, _ := BuildTestbed(sc, 5)
	if len(samples) != sc.OnlineGraphs {
		t.Fatalf("sample count %d", len(samples))
	}
	attacked := 0
	for _, s := range samples {
		if s.Attacked {
			attacked++
		}
		if len(s.Log) == 0 {
			t.Fatal("empty log in online sample")
		}
	}
	if attacked != sc.OnlineGraphs/2 {
		t.Fatalf("attacked %d want %d", attacked, sc.OnlineGraphs/2)
	}
}

func TestActiveScaleEnv(t *testing.T) {
	old := os.Getenv("FEXIOT_SCALE")
	defer os.Setenv("FEXIOT_SCALE", old)
	os.Setenv("FEXIOT_SCALE", "paper")
	if Active().Name != "paper" {
		t.Fatal("FEXIOT_SCALE=paper not honoured")
	}
	os.Setenv("FEXIOT_SCALE", "")
	if Active().Name != "ci" {
		t.Fatal("default scale should be ci")
	}
	// Paper scale reproduces Table I exactly.
	p := PaperScale()
	if p.IFTTTLabeled != 6000 || p.IFTTTVulnerable != 1473 ||
		p.HeteroLabeled != 12758 || p.HeteroVulnerable != 3828 ||
		p.IFTTTUnlabeled != 10000 || p.HeteroUnlabeled != 19440 {
		t.Fatal("paper scale constants drifted from Table I")
	}
}
