package baseline

import (
	"qlec/internal/cluster"
	"qlec/internal/protocol"
)

// Registry descriptors for the comparison baselines. Constructions
// mirror what experiment.BuildProtocol hard-wired pre-registry; the
// golden tests pin their exact results, so the factories must not drift.
func init() {
	protocol.Register(protocol.Descriptor{
		ID:          "FCM",
		Paper:       "Yao, Li, Song — WCNC 2018 (the paper's [14])",
		Summary:     "fuzzy c-means hierarchy: membership-weighted head choice, tiered multi-hop relaying",
		Order:       20,
		Figure3Rank: 2,
		Factory: func(b protocol.BuildContext) (cluster.Protocol, error) {
			return NewFCM(b.Net, b.K, b.FCMLevels, b.DeathLine, b.Seed)
		},
	})
	protocol.Register(protocol.Descriptor{
		ID:          "k-means",
		Aliases:     []string{"kmeans"},
		Paper:       "classic k-means clustering (the paper's §5 baseline)",
		Summary:     "position-only clustering, centroid-nearest heads, no energy awareness",
		Order:       30,
		Figure3Rank: 3,
		Factory: func(b protocol.BuildContext) (cluster.Protocol, error) {
			return NewKMeans(b.Net, b.K, b.DeathLine, b.Seed)
		},
	})
	protocol.Register(protocol.Descriptor{
		ID:      "LEACH",
		Paper:   "Heinzelman, Chandrakasan, Balakrishnan — HICSS 2000",
		Summary: "energy-blind head-rotation lottery with nearest-head assignment",
		Order:   40,
		// LEACH's head fraction p = k/N must stay below 1, so it needs
		// a second node.
		MinNodes: 2,
		Factory: func(b protocol.BuildContext) (cluster.Protocol, error) {
			k := b.K
			// LEACH's head fraction p = k/N must stay below 1.
			if k >= b.Net.N() {
				k = b.Net.N() - 1
			}
			return NewLEACH(b.Net, k, b.DeathLine, b.Seed)
		},
	})
	protocol.Register(protocol.Descriptor{
		ID:      "direct-to-BS",
		Aliases: []string{"direct"},
		Paper:   "no-clustering strawman (QLEC §1 premise)",
		Summary: "every node transmits straight to the base station",
		Order:   90,
		Factory: func(b protocol.BuildContext) (cluster.Protocol, error) {
			return NewDirect(), nil
		},
	})
}
