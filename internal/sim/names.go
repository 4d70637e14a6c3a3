package sim

import "strings"

// Names formats the names an owner gives its links, resources, processes
// and mailboxes — prefix followed by each part — into one string, and
// stores each name, a substring of it, in dst[i]. An owner naming many
// things then costs one allocation, not one per name:
//
//	var n [2]string
//	Names(n[:], "ib3", ".tx", ".rx") // n = ["ib3.tx" "ib3.rx"]
//
// dst must have room for every part.
func Names(dst []string, prefix string, parts ...string) {
	size := 0
	for _, part := range parts {
		size += len(prefix) + len(part)
	}
	var b strings.Builder
	b.Grow(size)
	for _, part := range parts {
		b.WriteString(prefix)
		b.WriteString(part)
	}
	s := b.String()
	for i, part := range parts {
		n := len(prefix) + len(part)
		dst[i], s = s[:n], s[n:]
	}
}
