package rules

import (
	"fmt"
	"sort"
	"strings"
)

// String renders the rule set in parseable DSL syntax (constants first, then
// rules in order). ParseRuleSet(rs.String(), rs.Schema) reproduces the set.
func (rs *RuleSet) String() string {
	var b strings.Builder
	names := make([]string, 0, len(rs.Consts))
	for k := range rs.Consts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "const %s = %d\n", k, rs.Consts[k])
	}
	if len(names) > 0 && len(rs.Rules) > 0 {
		b.WriteString("\n")
	}
	for _, r := range rs.Rules {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Filter returns a new rule set containing only rules for which keep returns
// true; constants and schema are shared.
func (rs *RuleSet) Filter(keep func(Rule) bool) *RuleSet {
	out := &RuleSet{Schema: rs.Schema, Consts: rs.Consts}
	for _, r := range rs.Rules {
		if keep(r) {
			out.Rules = append(out.Rules, r)
		}
	}
	return out
}

// Len reports the number of rules.
func (rs *RuleSet) Len() int { return len(rs.Rules) }
