package cli

// Protocol-registry plumbing shared by the command-line tools: resolve
// a -protocol argument against the plugin registry (with a
// nearest-match suggestion on typos) and render the roster for
// -list-protocols.

import (
	"fmt"
	"sort"
	"strings"

	"qlec/internal/protocol"
	_ "qlec/internal/protocol/all" // register every protocol
)

// ResolveProtocol maps any accepted spelling of a protocol name — a
// canonical id or an alias, case-insensitively — to its canonical
// registry id. Unknown names error with the nearest valid id.
func ResolveProtocol(name string) (string, error) {
	if d, ok := protocol.Lookup(name); ok {
		return d.ID, nil
	}
	if near := protocol.Nearest(name); near != "" {
		return "", fmt.Errorf("unknown protocol %q (did you mean %q? -list-protocols shows the registry)", name, near)
	}
	return "", fmt.Errorf("unknown protocol %q", name)
}

// FormatProtocols renders the registry roster as a fixed-width table:
// one row per registered protocol with its aliases, paper reference
// and default parameters.
func FormatProtocols() string {
	var b strings.Builder
	header := fmt.Sprintf("%-14s %-24s %-8s %s", "id", "aliases", "kind", "paper / defaults")
	b.WriteString(header + "\n")
	b.WriteString(strings.Repeat("-", len(header)) + "\n")
	for _, d := range protocol.All() {
		kind := "paper"
		if d.Ablation {
			kind = "ablation"
		}
		detail := d.Paper
		if len(d.DefaultParams) > 0 {
			keys := make([]string, 0, len(d.DefaultParams))
			for k := range d.DefaultParams {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var params []string
			for _, k := range keys {
				params = append(params, fmt.Sprintf("%s=%v", k, d.DefaultParams[k]))
			}
			if detail != "" {
				detail += "; "
			}
			detail += strings.Join(params, " ")
		}
		fmt.Fprintf(&b, "%-14s %-24s %-8s %s\n", d.ID, strings.Join(d.Aliases, ","), kind, detail)
	}
	return b.String()
}
