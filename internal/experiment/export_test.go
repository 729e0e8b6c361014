package experiment

import "qlec/internal/protocol"

// The related-work competitors, by registry id.
const (
	TDEEC  ProtocolID = "T-DEEC"  // heterogeneous-tier DEEC (arXiv 1408.4112)
	QLEACH ProtocolID = "Q-LEACH" // sectored LEACH (arXiv 1303.5240)
)

// AllProtocols returns every registered protocol id, ablations
// included, in the registry's deterministic (Order, ID) rank.
func AllProtocols() []ProtocolID {
	return toIDs(protocol.All())
}
