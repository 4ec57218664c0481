package pass

import (
	"strings"
	"testing"
)

func TestParseScript(t *testing.T) {
	invs, err := ParseScript("aig.resyn2; mig.resyn ;convert;cgp( gens = 500 , workers=8 );window(rounds=2);resub;buffer")
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"aig.resyn2", "mig.resyn", "convert", "cgp", "window", "resub", "buffer"}
	if len(invs) != len(wantNames) {
		t.Fatalf("got %d invocations, want %d", len(invs), len(wantNames))
	}
	for i, inv := range invs {
		if inv.Name != wantNames[i] {
			t.Fatalf("invocation %d = %q, want %q", i, inv.Name, wantNames[i])
		}
	}
	if got := invs[3].Args; got["gens"] != "500" || got["workers"] != "8" || len(got) != 2 {
		t.Fatalf("cgp args = %v", got)
	}
	if got := invs[4].Args; got["rounds"] != "2" {
		t.Fatalf("window args = %v", got)
	}
	if invs[6].Args != nil {
		t.Fatalf("buffer should have no args, got %v", invs[6].Args)
	}
}

func TestParseScriptEmptyParens(t *testing.T) {
	invs, err := ParseScript("cgp()")
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 1 || invs[0].Name != "cgp" || len(invs[0].Args) != 0 {
		t.Fatalf("got %+v", invs)
	}
}

func TestParseScriptErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		";",
		"cgp;;buffer",
		"cgp;",
		"cgp(",
		"cgp(gens=5",
		"cgp(gens=5))",
		"(gens=5)",
		"cgp gens",
		"cgp(=5)",
		"cgp(gens)",
		"cgp(gens=)",
		"cgp(gens=1,gens=2)",
		"cgp(,)",
		"cgp(gens=1,)",
		"1cgp",
		"c$gp",
		"cgp(1bad=2)",
		"a=b",
	}
	for _, script := range bad {
		if invs, err := ParseScript(script); err == nil {
			t.Errorf("ParseScript(%q) accepted: %+v", script, invs)
		}
	}
}

func TestFormatScriptRoundTrip(t *testing.T) {
	const script = "aig.resyn2;convert;cgp(gens=500,workers=8);buffer"
	invs, err := ParseScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatScript(invs); got != script {
		t.Fatalf("FormatScript = %q, want %q", got, script)
	}
}

func TestBuildUnknownPass(t *testing.T) {
	_, err := Build(Invocation{Name: "nonesuch"})
	if err == nil || !strings.Contains(err.Error(), "unknown pass") {
		t.Fatalf("err = %v", err)
	}
	// The error must name the available passes.
	if !strings.Contains(err.Error(), "cgp") || !strings.Contains(err.Error(), "convert") {
		t.Fatalf("error does not list registered passes: %v", err)
	}
}

func TestBuildBadOptions(t *testing.T) {
	cases := []Invocation{
		{Name: "cgp", Args: Args{"gens": "abc"}},
		{Name: "cgp", Args: Args{"bogus": "1"}},
		{Name: "cgp", Args: Args{"mu": "high"}},
		{Name: "cgp", Args: Args{"time": "5parsecs"}},
		{Name: "aig.resyn2", Args: Args{"effort": "max"}},
		{Name: "window", Args: Args{"rounds": "2.5"}},
		{Name: "resub", Args: Args{"anything": "1"}},
		{Name: "buffer", Args: Args{"x": "1"}},
	}
	for _, inv := range cases {
		if _, err := Build(inv); err == nil {
			t.Errorf("Build(%v) accepted bad options", inv)
		}
	}
}

// The search passes have one offspring-evaluation path, so the option that
// used to select it is gone: a script naming it is an error, not a no-op.
func TestBuildRejectsIncrementalOption(t *testing.T) {
	for _, script := range []string{"cgp(incremental=true)", "hybrid(incremental=false)"} {
		invs, err := ParseScript(script)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Build(invs[0])
		if err == nil || !strings.Contains(err.Error(), `unknown option "incremental"`) {
			t.Fatalf("%s: err = %v, want unknown option \"incremental\"", script, err)
		}
	}
}

func TestBuildGoodOptions(t *testing.T) {
	cases := []Invocation{
		{Name: "aig.resyn2"},
		{Name: "aig.resyn2", Args: Args{"effort": "high"}},
		{Name: "convert", Args: Args{"words": "8"}},
		{Name: "cgp", Args: Args{"gens": "100", "lambda": "2", "mu": "0.2", "seed": "9", "workers": "4", "islands": "2", "migrate": "50", "shrink": "true", "time": "30s"}},
		{Name: "anneal", Args: Args{"steps": "1000"}},
		{Name: "hybrid", Args: Args{"gens": "100"}},
		{Name: "window", Args: Args{"rounds": "3", "gens": "200", "maxgates": "8", "maxinputs": "6", "seed": "2", "workers": "2", "time": "1m"}},
		{Name: "resub"},
		{Name: "buffer"},
	}
	for _, inv := range cases {
		if _, err := Build(inv); err != nil {
			t.Errorf("Build(%v): %v", inv, err)
		}
	}
}

func TestRegistryListings(t *testing.T) {
	all := All()
	if len(all) < 9 {
		t.Fatalf("only %d registered passes", len(all))
	}
	for _, info := range all {
		if info.Name == "" || info.Stage == "" || info.Summary == "" || info.Build == nil {
			t.Fatalf("incomplete registration: %+v", info)
		}
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}
