package predictor

import (
	"sort"
	"strings"
)

// builtinPolicies are the paper's policies plus the reference policies:
// the full set a policy name can resolve to.
var builtinPolicies = []Policy{
	Owner, BroadcastIfShared, Group, OwnerGroup,
	StickySpatial, Minimal, Broadcast, Oracle,
}

// stickySpatialAlias is StickySpatial's bare name, without the "(1)"
// neighbor-count suffix of its String form.
const stickySpatialAlias = "stickyspatial"

// CanonicalName normalizes a policy name for lookup: lower-case with
// spaces, hyphens and underscores removed, so "BroadcastIfShared",
// "broadcast-if-shared" and "broadcast_if_shared" all name the same
// policy.
func CanonicalName(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(name)) {
		switch r {
		case ' ', '-', '_':
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// ByName resolves a built-in policy name, matched through CanonicalName.
func ByName(name string) (Policy, bool) {
	key := CanonicalName(name)
	if key == stickySpatialAlias {
		return StickySpatial, true
	}
	for _, p := range builtinPolicies {
		if CanonicalName(p.String()) == key {
			return p, true
		}
	}
	return 0, false
}

// Names returns every name ByName accepts in canonical form, sorted.
func Names() []string {
	names := []string{stickySpatialAlias}
	for _, p := range builtinPolicies {
		names = append(names, CanonicalName(p.String()))
	}
	sort.Strings(names)
	return names
}
