package llmwf

import (
	"fmt"
	"strings"

	"hhcw/internal/futures"
	"hhcw/internal/sim"
	"hhcw/internal/storage"
)

// RunStats summarizes one function-calling session (§2.1 prototype).
type RunStats struct {
	Steps             int
	FutureIDs         []string
	Requests          int
	SentTokens        int
	PeakRequestTokens int
	// MakespanSec is the virtual execution time of the composed workflow.
	MakespanSec float64
}

// systemContext is the "predefined context ... added, just like any other
// user message, that helps to better interpret any instruction".
const systemContext = "You orchestrate scientific workflow tasks by calling the provided functions. " +
	"After each call you receive the AppFuture ID of the scheduled task; pass it to dependent steps. " +
	"Reply with the stop flag when the workflow is complete."

// RunFunctionCalling drives the §2.1 loop: send specs + instruction, execute
// the chosen function, report the new AppFuture ID back, repeat until the
// stop flag. It faithfully reproduces the prototype's two limitations:
// exceptions are NOT handled (a bad function choice or failed app aborts the
// run), and deep workflows exhaust the token limit.
func RunFunctionCalling(eng *sim.Engine, exec *futures.Executor, llm LLM, specs []FunctionSpec, goal string, tokenLimit int) (*RunStats, error) {
	conv := &Conversation{TokenLimit: tokenLimit}
	conv.Append(RoleSystem, systemContext)
	conv.Append(RoleUser, goal)

	stats := &RunStats{}
	var last *futures.AppFuture
	for {
		if err := conv.ChargeRequest(specs); err != nil {
			return stats, err
		}
		resp, err := llm.Complete(specs, conv)
		if err != nil {
			return stats, err
		}
		if resp.Stop {
			break
		}
		fut, err := executeCall(exec, resp.Call)
		if err != nil {
			// Limitation 1: "if the API executes a wrong function call,
			// the program cannot recover from the failure."
			return stats, fmt.Errorf("llmwf: unrecoverable bad function call %s: %w", resp.Call, err)
		}
		last = fut
		stats.Steps++
		stats.FutureIDs = append(stats.FutureIDs, fut.ID)
		// "The first message partially includes the previous response from
		// the API ... The second message is a new user message indicating
		// the ID assigned to the newly executed Parsl app."
		conv.Append(RoleAssistant, "call: "+resp.Call.String())
		conv.Append(RoleUser, "future: "+fut.ID)
	}
	stats.Requests = conv.Requests()
	stats.SentTokens = conv.SentTokens()
	stats.PeakRequestTokens = conv.PeakRequestTokens()

	start := eng.Now()
	eng.Run()
	stats.MakespanSec = float64(eng.Now() - start)
	if last != nil && last.State() == futures.Failed {
		return stats, fmt.Errorf("llmwf: workflow failed: %w", last.Err())
	}
	return stats, nil
}

// executeCall dispatches a model function choice onto the futures executor.
func executeCall(exec *futures.Executor, call *Call) (*futures.AppFuture, error) {
	if call == nil {
		return nil, fmt.Errorf("llmwf: model returned neither stop nor call")
	}
	app, fromFutures, ok := AppOfFunction(call.Function)
	if !ok {
		return nil, fmt.Errorf("llmwf: %q is not a generated adapter", call.Function)
	}
	if fromFutures {
		ids := splitList(call.Args["future_ids"])
		if len(ids) == 0 {
			return nil, fmt.Errorf("llmwf: %s called without future_ids", call.Function)
		}
		return exec.SubmitFromFutures(app, ids)
	}
	paths := splitList(call.Args["files"])
	if len(paths) == 0 {
		return nil, fmt.Errorf("llmwf: %s called without files", call.Function)
	}
	files := make([]storage.File, len(paths))
	for i, p := range paths {
		files[i] = storage.File{Name: p, Bytes: 10e6}
	}
	return exec.SubmitFromFiles(app, files)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// RegisterPhyloflow registers the §2.1 demonstration apps on an executor and
// returns their function specs. failStep, when non-empty, marks that app to
// fail its first execution (for the agent-engine recovery demos).
func RegisterPhyloflow(exec *futures.Executor, failStep string) []FunctionSpec {
	apps := []futures.App{
		{Name: "vcf-transform", DurationSec: 30, Outputs: []string{"mutations.tsv"}},
		{Name: "pyclone-vi", DurationSec: 300, Outputs: []string{"clusters.tsv"}},
		{Name: "spruce-reformat", DurationSec: 15, Outputs: []string{"spruce-input.tsv"}},
		{Name: "spruce-phylogeny", DurationSec: 600, Outputs: []string{"tumor-evolution.json"}},
	}
	descs := map[string]string{
		"vcf-transform":    "Extract mutation data from a VCF file into pyclone-vi input format",
		"pyclone-vi":       "Cluster mutations by evolutionary relationship",
		"spruce-reformat":  "Reformat cluster data for SPRUCE",
		"spruce-phylogeny": "Compute the tumor evolution phylogeny JSON",
	}
	var specs []FunctionSpec
	for _, a := range apps {
		if a.Name == failStep {
			a.FailWith = "simulated step failure"
			a.FailFirstN = 1
		}
		exec.RegisterApp(a)
		specs = append(specs, AdaptersForApp(a.Name, descs[a.Name])...)
	}
	return specs
}
