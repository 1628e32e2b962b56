package llmwf

import (
	"errors"
	"strings"
	"testing"

	"hhcw/internal/futures"
	"hhcw/internal/sim"
)

func setup(failStep string) (*sim.Engine, *futures.Executor, []FunctionSpec) {
	eng := sim.NewEngine()
	exec := futures.NewExecutor(eng)
	specs := RegisterPhyloflow(exec, failStep)
	return eng, exec, specs
}

func TestAdaptersForApp(t *testing.T) {
	specs := AdaptersForApp("pyclone-vi", "cluster mutations")
	if len(specs) != 2 {
		t.Fatalf("specs = %d", len(specs))
	}
	if specs[0].Name != "pyclone-vi_from_file" || specs[1].Name != "pyclone-vi_from_futures" {
		t.Fatalf("names = %s, %s", specs[0].Name, specs[1].Name)
	}
	app, ff, ok := AppOfFunction("pyclone-vi_from_futures")
	if !ok || app != "pyclone-vi" || !ff {
		t.Fatal("AppOfFunction futures parse failed")
	}
	app, ff, ok = AppOfFunction("pyclone-vi_from_file")
	if !ok || app != "pyclone-vi" || ff {
		t.Fatal("AppOfFunction file parse failed")
	}
	if _, _, ok := AppOfFunction("random_name"); ok {
		t.Fatal("non-adapter accepted")
	}
	if !strings.Contains(specs[0].JSON(), "pyclone-vi_from_file") {
		t.Fatal("JSON serialization broken")
	}
}

func TestConversationTokenAccounting(t *testing.T) {
	c := &Conversation{}
	c.Append(RoleUser, "12345678") // 2 tokens
	specs := []FunctionSpec{{Name: "f"}}
	per := c.RequestTokens(specs)
	if per <= 2 {
		t.Fatalf("request tokens = %d, specs not charged", per)
	}
	if err := c.ChargeRequest(specs); err != nil {
		t.Fatal(err)
	}
	if err := c.ChargeRequest(specs); err != nil {
		t.Fatal(err)
	}
	if c.Requests() != 2 || c.SentTokens() != 2*per {
		t.Fatalf("requests=%d sent=%d", c.Requests(), c.SentTokens())
	}
	if c.PeakRequestTokens() != per {
		t.Fatalf("peak = %d, want %d", c.PeakRequestTokens(), per)
	}
}

func TestConversationTokenLimit(t *testing.T) {
	c := &Conversation{TokenLimit: 10}
	c.Append(RoleUser, strings.Repeat("x", 100)) // 25 tokens
	err := c.ChargeRequest(nil)
	var tl *ErrTokenLimit
	if !errors.As(err, &tl) {
		t.Fatalf("err = %v, want ErrTokenLimit", err)
	}
	if tl.Limit != 10 || tl.Request != 25 {
		t.Fatalf("limit error = %+v", tl)
	}
}

func TestFunctionCallingHappyPath(t *testing.T) {
	eng, exec, specs := setup("")
	llm := NewMockLLM(PhyloflowTemplate)
	stats, err := RunFunctionCalling(eng, exec, llm, specs, "run the phylogenetic analysis on sample.vcf", 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 4 {
		t.Fatalf("steps = %d, want 4 phyloflow tasks", stats.Steps)
	}
	// Steps + final stop = 5 requests.
	if stats.Requests != 5 {
		t.Fatalf("requests = %d, want 5", stats.Requests)
	}
	// The chain executed sequentially: 30+300+15+600.
	if stats.MakespanSec != 945 {
		t.Fatalf("makespan = %v, want 945", stats.MakespanSec)
	}
	// Every future is done.
	for _, id := range stats.FutureIDs {
		f, ok := exec.Lookup(id)
		if !ok || f.State() != futures.Done {
			t.Fatalf("future %s not done", id)
		}
	}
}

func TestFunctionCallingContextGrowth(t *testing.T) {
	eng, exec, specs := setup("")
	llm := NewMockLLM(PhyloflowTemplate)
	stats, err := RunFunctionCalling(eng, exec, llm, specs, "run the phylogenetic analysis on sample.vcf", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cumulative tokens grow superlinearly: total > requests × first
	// request cost.
	first := (&Conversation{Messages: []Message{
		{Role: RoleSystem, Content: systemContext},
		{Role: RoleUser, Content: "run the phylogenetic analysis on sample.vcf"},
	}}).RequestTokens(specs)
	if stats.SentTokens <= first*stats.Requests {
		t.Fatalf("sent tokens %d do not show context growth over %d×%d", stats.SentTokens, stats.Requests, first)
	}
	if stats.PeakRequestTokens <= first {
		t.Fatal("peak request should exceed the first request")
	}
}

func TestFunctionCallingTokenLimitHit(t *testing.T) {
	eng, exec, specs := setup("")
	llm := NewMockLLM(PhyloflowTemplate)
	// A limit big enough for the first request but not the grown context.
	first := (&Conversation{Messages: []Message{
		{Role: RoleSystem, Content: systemContext},
		{Role: RoleUser, Content: "run the phylogenetic analysis on sample.vcf"},
	}}).RequestTokens(specs)
	_, err := RunFunctionCalling(eng, exec, llm, specs, "run the phylogenetic analysis on sample.vcf", first+20)
	var tl *ErrTokenLimit
	if !errors.As(err, &tl) {
		t.Fatalf("err = %v, want token limit", err)
	}
}

func TestFunctionCallingCannotRecoverFromWrongCall(t *testing.T) {
	eng, exec, specs := setup("")
	llm := NewMockLLM(PhyloflowTemplate)
	llm.WrongCallEvery = 2 // second choice is bogus
	_, err := RunFunctionCalling(eng, exec, llm, specs, "run the phylogenetic analysis on sample.vcf", 0)
	if err == nil || !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("err = %v, want unrecoverable bad call (§2.1 limitation)", err)
	}
}

func TestFunctionCallingFailedAppAborts(t *testing.T) {
	eng, exec, specs := setup("pyclone-vi")
	llm := NewMockLLM(PhyloflowTemplate)
	_, err := RunFunctionCalling(eng, exec, llm, specs, "run the phylogenetic analysis on sample.vcf", 0)
	if err == nil {
		t.Fatal("failed app should abort the baseline prototype")
	}
}

func TestAgentEngineRecoverFromWrongCall(t *testing.T) {
	eng, exec, specs := setup("")
	llm := NewMockLLM(PhyloflowTemplate)
	llm.WrongCallEvery = 3
	e := &AgentEngine{Eng: eng, Exec: exec, LLM: llm, Specs: specs, MaxDebugAttempts: 2}
	rep, err := e.Execute("run the phylogenetic analysis on sample.vcf")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 4 {
		t.Fatalf("steps = %d", rep.Steps)
	}
	if rep.DebuggerInvoked == 0 || rep.Recovered == 0 {
		t.Fatalf("debugger stats: invoked=%d recovered=%d", rep.DebuggerInvoked, rep.Recovered)
	}
	if rep.HumanEscalations != 0 {
		t.Fatalf("human escalations = %d, want 0", rep.HumanEscalations)
	}
}

func TestAgentEngineRecoverFromTransientAppFailure(t *testing.T) {
	eng, exec, specs := setup("pyclone-vi") // fails its first execution
	llm := NewMockLLM(PhyloflowTemplate)
	e := &AgentEngine{Eng: eng, Exec: exec, LLM: llm, Specs: specs, MaxDebugAttempts: 2}
	rep, err := e.Execute("run the phylogenetic analysis on sample.vcf")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 4 || rep.Recovered == 0 {
		t.Fatalf("steps=%d recovered=%d", rep.Steps, rep.Recovered)
	}
}

func TestAgentEngineHumanEscalation(t *testing.T) {
	eng := sim.NewEngine()
	exec := futures.NewExecutor(eng)
	// pyclone-vi fails its first 5 executions — beyond debugger patience.
	specs := RegisterPhyloflow(exec, "")
	exec.RegisterApp(futures.App{
		Name: "pyclone-vi", DurationSec: 300,
		Outputs: []string{"clusters.tsv"}, FailWith: "bad input", FailFirstN: 5,
	})
	llm := NewMockLLM(PhyloflowTemplate)
	humanCalls := 0
	e := &AgentEngine{
		Eng: eng, Exec: exec, LLM: llm, Specs: specs, MaxDebugAttempts: 2,
		Human: func(is Issue) bool {
			humanCalls++
			return humanCalls < 3 // keep retrying twice, then give up
		},
	}
	rep, err := e.Execute("run the phylogenetic analysis on sample.vcf")
	if err != nil {
		t.Fatal(err) // 2 debug retries + human retries get past 5 failures
	}
	if humanCalls == 0 || rep.HumanEscalations == 0 {
		t.Fatal("human was never consulted")
	}
}

func TestAgentEngineHumanGivesUp(t *testing.T) {
	eng := sim.NewEngine()
	exec := futures.NewExecutor(eng)
	specs := RegisterPhyloflow(exec, "")
	exec.RegisterApp(futures.App{
		Name: "vcf-transform", DurationSec: 30,
		Outputs: []string{"mutations.tsv"}, FailWith: "corrupt VCF",
	})
	llm := NewMockLLM(PhyloflowTemplate)
	e := &AgentEngine{
		Eng: eng, Exec: exec, LLM: llm, Specs: specs, MaxDebugAttempts: 1,
		Human: func(Issue) bool { return false },
	}
	if _, err := e.Execute("run the phylogenetic analysis on sample.vcf"); err == nil {
		t.Fatal("permanently failing step should abort even with agents")
	}
}

func TestMockLLMNoTemplateMatch(t *testing.T) {
	llm := NewMockLLM(PhyloflowTemplate)
	conv := &Conversation{}
	conv.Append(RoleUser, "bake a cake")
	if _, err := llm.Complete(nil, conv); err == nil {
		t.Fatal("unmatched instruction should error")
	}
}

func TestExtractFile(t *testing.T) {
	if got := extractFile("run the phylogenetic analysis on sample.vcf"); got != "sample.vcf" {
		t.Fatalf("extractFile = %q", got)
	}
	if got := extractFile("no file here"); got != "input.dat" {
		t.Fatalf("default = %q", got)
	}
}

func TestCallString(t *testing.T) {
	c := Call{Function: "f", Args: map[string]string{"b": "2", "a": "1"}}
	if got := c.String(); got != "f(a=1, b=2)" {
		t.Fatalf("Call.String = %q", got)
	}
}

// registerRNASeq registers the §5 Salmon pipeline steps as futures apps and
// returns their function specs, the second template a planner routes to.
func registerRNASeq(exec *futures.Executor) []FunctionSpec {
	apps := []futures.App{
		{Name: "prefetch", DurationSec: 36, Outputs: []string{"run.sra"}},
		{Name: "fasterq-dump", DurationSec: 84, Outputs: []string{"run.fastq"}},
		{Name: "salmon", DurationSec: 576, Outputs: []string{"quant.sf"}},
		{Name: "deseq2", DurationSec: 11, Outputs: []string{"counts.tsv"}},
	}
	descs := map[string]string{
		"prefetch":     "Download an .sra run from the archive",
		"fasterq-dump": "Convert .sra to fastq",
		"salmon":       "Pseudo-align and quantify reads",
		"deseq2":       "Normalize counts",
	}
	var specs []FunctionSpec
	for _, a := range apps {
		exec.RegisterApp(a)
		specs = append(specs, AdaptersForApp(a.Name, descs[a.Name])...)
	}
	return specs
}

func TestMultiTemplatePlanning(t *testing.T) {
	// One planner knowing both templates routes each instruction to the
	// right workflow.
	eng := sim.NewEngine()
	exec := futures.NewExecutor(eng)
	specs := RegisterPhyloflow(exec, "")
	specs = append(specs, registerRNASeq(exec)...)
	// The §5 Salmon pipeline as a planning template, so the same chatbot
	// front-end can drive transcriptomics requests.
	rnaseq := WorkflowTemplate{
		Name:  "rnaseq",
		Goal:  "transcriptom",
		Steps: []string{"prefetch", "fasterq-dump", "salmon", "deseq2"},
	}
	llm := NewMockLLM(PhyloflowTemplate, rnaseq)

	stats, err := RunFunctionCalling(eng, exec, llm, specs,
		"build the transcriptomics quantification for SRR0001.sra", 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 4 {
		t.Fatalf("steps = %d", stats.Steps)
	}
	// The first future must be a prefetch app, not a phyloflow one.
	f, _ := exec.Lookup(stats.FutureIDs[0])
	if f.AppName != "prefetch" {
		t.Fatalf("first app = %s, want prefetch (RNA-seq template)", f.AppName)
	}
	// Chain runtime: 36+84+576+11.
	if stats.MakespanSec != 707 {
		t.Fatalf("makespan = %v, want 707", stats.MakespanSec)
	}
}

func TestErrTokenLimitMessage(t *testing.T) {
	e := &ErrTokenLimit{Request: 100, Limit: 50}
	if !strings.Contains(e.Error(), "100") || !strings.Contains(e.Error(), "50") {
		t.Fatalf("error message = %q", e.Error())
	}
}
