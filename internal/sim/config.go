// Package sim is the discrete-event wireless-network simulator that all
// protocol comparisons in the reproduction run on.
//
// The paper's round structure (§4, §5.1) is the outer loop: each round a
// protocol selects cluster heads, member nodes generate sensing packets
// with Poisson-process timing ("the packet generation time in the network
// follows the poisson distribution", §5.2) and forward them to heads of
// the protocol's choosing; heads fuse received data (50 % compression,
// Table 2) and deliver it to the base station. Inside a round, packet
// transmission, ACKs, retries, head-queue service and overflow run on an
// event queue so that congestion — the force that bends Figure 3(a) — is
// produced by actual queueing rather than assumed.
//
// Everything protocol-independent (radio energy, link loss, queue
// capacities, timing) is identical across protocols; measured differences
// are attributable to the clustering/routing algorithms alone.
package sim

import (
	"fmt"

	"qlec/internal/energy"
)

// Config holds the protocol-independent simulation parameters.
type Config struct {
	// Bits is the sensing-packet payload size L in bits.
	Bits int
	// HelloBits sizes control messages (head advertisements).
	HelloBits int
	// MeanInterArrival is λ: the mean seconds between packet generations
	// per node. "The smaller λ is, the more congested the network is"
	// (§5.2).
	MeanInterArrival float64
	// RoundDuration is the length of one round in seconds.
	RoundDuration float64
	// QueueCapacity bounds each cluster head's packet cache ("limited
	// storage caches of cluster heads may lead to packet loss", §4.2).
	QueueCapacity int
	// ServiceTime is the per-packet fusion time at a head, in seconds;
	// it sets the service rate that arrivals race against.
	ServiceTime float64
	// BSQueueCapacity bounds the base station's receive buffer for
	// packets sent to it during a round (direct-to-BS traffic and the
	// FCM hierarchy's terminal hops). The BS is mains-powered but its
	// receiver pipeline is finite — the paper's reason for penalizing
	// direct transmission is that it "will aggravate the burden of the
	// base station" (§4.2). End-of-round aggregated bursts (one frame
	// per head) bypass the queue.
	BSQueueCapacity int
	// BSServiceTime is the BS's per-packet processing time in seconds.
	BSServiceTime float64
	// MaxRetries is how many times a member retransmits an unACKed
	// packet (each retry re-asks the protocol for a target, which is
	// where QLEC's rerouting pays off).
	MaxRetries int
	// BatchRetries is how many times a head retries its end-of-round
	// aggregated burst toward the base station.
	BatchRetries int
	// Compression is the data-fusion compression ratio at heads
	// (Table 2: 50 %).
	Compression float64
	// DeathLine is the residual-energy threshold below which a node
	// counts as dead (§5.1).
	DeathLine energy.Joules
	// StopOnDeath ends the run at the end of the round in which the
	// first node dies (lifespan measurements, Fig. 3c).
	StopOnDeath bool
	// BitRate is the radio bit rate in bits/second (transmission delay =
	// Bits/BitRate).
	BitRate float64
	// LinkPMax is the link success probability at zero distance.
	LinkPMax float64
	// LinkRef is the distance scale of link degradation:
	// p(d) = LinkPMax · exp(−(d/LinkRef)²).
	LinkRef float64
	// MobilitySpeedMin/MobilitySpeedMax enable random-waypoint node
	// mobility (m/s): positions advance by RoundDuration between rounds,
	// the paper's §3.1 motivation for re-running head selection every
	// round. Both zero (the default) keeps the network static.
	MobilitySpeedMin float64
	MobilitySpeedMax float64
	// MobilityPause is the dwell time at each waypoint in seconds.
	MobilityPause float64
	// ContentionGamma enables interference-driven link degradation: a
	// transmission resolving while m other transmissions are in flight
	// succeeds with probability scaled by exp(−γ·m) — a coarse CSMA-less
	// collision model. Congestion then hurts twice, through queue
	// overflow and through the channel itself. Zero disables.
	ContentionGamma float64
	// ShadowSigma enables log-normal per-link shadowing: each directed
	// link gets a persistent quality factor exp(σZ − σ²/2) (mean 1,
	// Z ~ N(0,1), drawn deterministically from the seed) multiplying its
	// success probability. This is the "poor communication environment"
	// of §4.2 made persistent: some links are just bad, and a protocol
	// that learns link quality from ACKs (QLEC) can route around them
	// while static assignments (k-means) cannot. Zero disables.
	ShadowSigma float64
	// RetryBackoff is the delay before a retransmission, in seconds.
	RetryBackoff float64
	// DisableControlTraffic turns off the per-round HELLO/advertisement
	// energy overhead (used by ablations isolating data-plane costs).
	DisableControlTraffic bool
	// Seed drives all simulator randomness (traffic timing, link draws).
	Seed uint64
}

// DefaultConfig returns the paper's Table 2 settings plus standard
// 802.15.4-flavoured values for the constants the paper leaves
// unspecified.
func DefaultConfig() Config {
	return Config{
		Bits:             4000,
		HelloBits:        200,
		MeanInterArrival: 4,
		RoundDuration:    20,
		QueueCapacity:    24,
		// 0.1 s per packet = 10 pkt/s per head. With the paper's N=100,
		// k=5, the λ ∈ {8,4,2,1} sweep then offers {2.5,5,10,20} pkt/s
		// per head — idle, half-loaded, saturated, overloaded — which is
		// the congestion range Figure 3 spans.
		ServiceTime:     0.1,
		BSQueueCapacity: 64,
		BSServiceTime:   0.02, // 50 pkt/s: fast, not infinite
		MaxRetries:      3,
		BatchRetries:    5,
		Compression:     0.5,
		DeathLine:       0,
		BitRate:         250e3,
		LinkPMax:        0.99,
		LinkRef:         400,
		RetryBackoff:    0.05,
		Seed:            1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Bits <= 0 {
		return fmt.Errorf("sim: Bits must be positive, got %d", c.Bits)
	}
	if c.HelloBits < 0 {
		return fmt.Errorf("sim: HelloBits must be non-negative, got %d", c.HelloBits)
	}
	if !(c.MeanInterArrival > 0) {
		return fmt.Errorf("sim: MeanInterArrival must be positive, got %v", c.MeanInterArrival)
	}
	if !(c.RoundDuration > 0) {
		return fmt.Errorf("sim: RoundDuration must be positive, got %v", c.RoundDuration)
	}
	if c.QueueCapacity < 1 {
		return fmt.Errorf("sim: QueueCapacity must be at least 1, got %d", c.QueueCapacity)
	}
	if !(c.ServiceTime >= 0) {
		return fmt.Errorf("sim: ServiceTime must be non-negative, got %v", c.ServiceTime)
	}
	if c.BSQueueCapacity < 1 {
		return fmt.Errorf("sim: BSQueueCapacity must be at least 1, got %d", c.BSQueueCapacity)
	}
	if !(c.BSServiceTime >= 0) {
		return fmt.Errorf("sim: BSServiceTime must be non-negative, got %v", c.BSServiceTime)
	}
	if c.MaxRetries < 0 || c.BatchRetries < 0 {
		return fmt.Errorf("sim: retry counts must be non-negative")
	}
	if !(c.Compression > 0 && c.Compression <= 1) {
		return fmt.Errorf("sim: Compression must be in (0,1], got %v", c.Compression)
	}
	if c.DeathLine < 0 {
		return fmt.Errorf("sim: DeathLine must be non-negative, got %v", c.DeathLine)
	}
	if !(c.BitRate > 0) {
		return fmt.Errorf("sim: BitRate must be positive, got %v", c.BitRate)
	}
	if !(c.LinkPMax > 0 && c.LinkPMax <= 1) {
		return fmt.Errorf("sim: LinkPMax must be in (0,1], got %v", c.LinkPMax)
	}
	if !(c.LinkRef > 0) {
		return fmt.Errorf("sim: LinkRef must be positive, got %v", c.LinkRef)
	}
	if c.ContentionGamma < 0 {
		return fmt.Errorf("sim: ContentionGamma must be non-negative, got %v", c.ContentionGamma)
	}
	if c.ShadowSigma < 0 {
		return fmt.Errorf("sim: ShadowSigma must be non-negative, got %v", c.ShadowSigma)
	}
	if c.MobilitySpeedMin < 0 || c.MobilitySpeedMax < c.MobilitySpeedMin {
		return fmt.Errorf("sim: invalid mobility speed range [%v, %v]",
			c.MobilitySpeedMin, c.MobilitySpeedMax)
	}
	if c.MobilityPause < 0 {
		return fmt.Errorf("sim: negative mobility pause %v", c.MobilityPause)
	}
	if !(c.RetryBackoff >= 0) {
		return fmt.Errorf("sim: RetryBackoff must be non-negative, got %v", c.RetryBackoff)
	}
	return nil
}

// TxDelay returns the serialization delay of a payload of the given size.
func (c Config) TxDelay(bits int) float64 {
	return float64(bits) / c.BitRate
}
