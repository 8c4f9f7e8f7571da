package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsSmoke runs every table/figure generator in quick mode
// and sanity-checks the output shape. This is the regression net for the
// evaluation harness itself.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs are not short")
	}
	cases := []struct {
		name string
		run  func(Config) error
		want []string
	}{
		{"table1", Table1, []string{"Table 1", "barnes", "lu_ncb", "runtime"}},
		{"fig1", Fig1, []string{"Figure 1", "Consequence-Weak-Nondet"}},
		{"fig7", Fig7, []string{"Figure 7", "ht", "htlazy", "LazyDet"}},
		{"fig8", Fig8, []string{"Figure 8", "lock-based group", "ferret"}},
		{"fig9", Fig9, []string{"Figure 9", "water_nsquared", "threads"}},
		{"fig10", Fig10, []string{"Figure 10", "utilization"}},
		{"fig11", Fig11, []string{"Figure 11", "NoCoarsening", "NoIrrevocable", "NoPerLockStats"}},
		{"table2", Table2, []string{"Table 2", "% success", "dedup"}},
		{"fig12", Fig12, []string{"Figure 12", "least-squares"}},
		{"versions", Versions, []string{"§4.2", "DDRF", "DLRC", "16 pages"}},
		{"arbsweep", ArbiterSweep, []string{"arbiter cost", "work/grant"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			cfg := Config{Out: &sb, Reps: 1, Quick: true, Threads: 4}
			if err := c.run(cfg); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Errorf("output missing %q:\n%s", w, out)
				}
			}
		})
	}
}

// TestConfigDefaults: zero config fills usable defaults and discards
// output.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Reps <= 0 || c.Scale <= 0 || c.Out == nil {
		t.Fatalf("defaults not filled: %+v", c)
	}
}
