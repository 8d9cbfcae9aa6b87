package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Link describes one direction of a network path between two domains.
type Link struct {
	// Bandwidth in bytes per second. Zero means the link is unusable.
	Bandwidth float64
	// Latency is the fixed per-transfer round-trip setup cost.
	Latency time.Duration
}

// Network models the wide-area links between grid administrative domains.
// It substitutes for the real WAN between sites (SDSC, CERN, CCLRC, ...):
// transfer durations are computed from per-pair bandwidth/latency, and all
// traffic is metered so experiments can report bytes moved per link.
//
// Lookups fall back from the specific pair to the network default, so a
// sparse configuration ("everything is 10 MB/s except the CERN→tier1
// trunks") stays small.
type Network struct {
	mu      sync.RWMutex
	links   map[string]Link // key: src + "→" + dst
	def     Link
	traffic map[string]int64 // bytes moved per directed pair
}

// DefaultBandwidth is the fallback link speed: 10 MB/s, a realistic
// 2005-era inter-site rate.
const DefaultBandwidth = 10 << 20

// NewNetwork returns a network where every pair uses the default link
// (10 MB/s, 50 ms) until overridden with SetLink.
func NewNetwork() *Network {
	return &Network{
		links:   make(map[string]Link),
		def:     Link{Bandwidth: DefaultBandwidth, Latency: 50 * time.Millisecond},
		traffic: make(map[string]int64),
	}
}

func pairKey(src, dst string) string { return src + "\x00" + dst }

// SetLink configures the directed link from src to dst.
func (n *Network) SetLink(src, dst string, l Link) {
	n.mu.Lock()
	n.links[pairKey(src, dst)] = l
	n.mu.Unlock()
}

// SetSymmetric configures both directions between a and b.
func (n *Network) SetSymmetric(a, b string, l Link) {
	n.SetLink(a, b, l)
	n.SetLink(b, a, l)
}

// LinkBetween returns the effective link from src to dst. Transfers within
// one domain use an implicit LAN link (1 GB/s, 1 ms).
func (n *Network) LinkBetween(src, dst string) Link {
	if src == dst {
		return Link{Bandwidth: 1 << 30, Latency: time.Millisecond}
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if l, ok := n.links[pairKey(src, dst)]; ok {
		return l
	}
	return n.def
}

// TransferTime returns the simulated duration of moving `bytes` from src
// to dst, or an error if no usable link exists.
func (n *Network) TransferTime(src, dst string, bytes int64) (time.Duration, error) {
	l := n.LinkBetween(src, dst)
	if l.Bandwidth <= 0 {
		return 0, fmt.Errorf("sim: no usable link %s→%s", src, dst)
	}
	secs := float64(bytes) / l.Bandwidth
	return l.Latency + time.Duration(secs*float64(time.Second)), nil
}

// RecordTransfer charges `bytes` of traffic to the src→dst pair and
// returns the simulated transfer duration.
func (n *Network) RecordTransfer(src, dst string, bytes int64) (time.Duration, error) {
	d, err := n.TransferTime(src, dst, bytes)
	if err != nil {
		return 0, err
	}
	n.mu.Lock()
	n.traffic[pairKey(src, dst)] += bytes
	n.mu.Unlock()
	return d, nil
}

// Traffic returns total bytes recorded from src to dst.
func (n *Network) Traffic(src, dst string) int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.traffic[pairKey(src, dst)]
}

// TotalTraffic returns the total bytes recorded across all pairs.
func (n *Network) TotalTraffic() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var sum int64
	for _, b := range n.traffic {
		sum += b
	}
	return sum
}

// TrafficReport lists per-pair traffic sorted by descending bytes; ties
// break on the pair name so output is deterministic.
func (n *Network) TrafficReport() []PairTraffic {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]PairTraffic, 0, len(n.traffic))
	for k, b := range n.traffic {
		var src, dst string
		for i := 0; i < len(k); i++ {
			if k[i] == 0 {
				src, dst = k[:i], k[i+1:]
				break
			}
		}
		out = append(out, PairTraffic{Src: src, Dst: dst, Bytes: b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// Reset clears the traffic meters (links stay configured).
func (n *Network) Reset() {
	n.mu.Lock()
	n.traffic = make(map[string]int64)
	n.mu.Unlock()
}

// PairTraffic is one row of a traffic report.
type PairTraffic struct {
	Src, Dst string
	Bytes    int64
}

// String formats the row for experiment output.
func (p PairTraffic) String() string {
	return fmt.Sprintf("%s→%s: %s", p.Src, p.Dst, FormatBytes(p.Bytes))
}

// FormatBytes renders a byte count in human units (KiB/MiB/GiB/TiB).
func FormatBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGT"[exp])
}
