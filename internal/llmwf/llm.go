package llmwf

import (
	"fmt"
	"strings"
)

// Response is one model turn: either a function call choice or a stop.
type Response struct {
	Stop    bool
	Call    *Call
	Content string
}

// LLM is the function-calling model interface. The mock below is the
// offline stand-in for OpenAI's API; the protocol consumers (driver.go,
// agents.go) never know the difference.
type LLM interface {
	// Complete receives the function specs and the accumulated context and
	// returns the next action.
	Complete(specs []FunctionSpec, conv *Conversation) (Response, error)
}

// WorkflowTemplate is the knowledge a planner LLM has about a workflow: an
// ordered list of app steps, the first fed from files, the rest chained via
// future IDs.
type WorkflowTemplate struct {
	Name  string
	Goal  string // keyword matched against the user instruction
	Steps []string
}

// PhyloflowTemplate is the §2.1 demonstration workflow: "vcf-transform"
// extracts and reformats a VCF, "pyclone-vi" clusters mutations,
// "spruce-reformat" prepares SPRUCE input, and "spruce-phylogeny" computes
// the tumor-evolution JSON.
var PhyloflowTemplate = WorkflowTemplate{
	Name:  "phyloflow",
	Goal:  "phylogenetic",
	Steps: []string{"vcf-transform", "pyclone-vi", "spruce-reformat", "spruce-phylogeny"},
}

// MockLLM is a deterministic scripted planner. It reads the conversation to
// find (a) the user instruction, matching it against its workflow templates,
// and (b) the IDs of futures already created, to chain the next step. It can
// inject wrong function choices at a fixed cadence to exercise the error
// paths §2.1 says the prototype cannot recover from.
type MockLLM struct {
	Templates []WorkflowTemplate
	// WrongCallEvery makes every k-th function choice erroneous (0 = never):
	// the model names a nonexistent function, as real models sometimes do.
	WrongCallEvery int

	calls int
}

// NewMockLLM returns a planner knowing the given templates.
func NewMockLLM(templates ...WorkflowTemplate) *MockLLM {
	return &MockLLM{Templates: templates}
}

// Complete implements LLM.
func (m *MockLLM) Complete(specs []FunctionSpec, conv *Conversation) (Response, error) {
	tpl, goalMsg, err := m.matchTemplate(conv)
	if err != nil {
		return Response{}, err
	}
	// Count completed steps: each executed call was echoed into context as
	// an assistant "call:" message followed by a user "future:" message. A
	// "carry:" message seeds a sub-conversation with an upstream future (the
	// hierarchical decomposition scheme; see RunHierarchical).
	stepsDone := 0
	lastFuture := ""
	carried := false
	for _, msg := range conv.Messages {
		if msg.Role != RoleUser {
			continue
		}
		switch {
		case strings.HasPrefix(msg.Content, "future:"):
			stepsDone++
			lastFuture = strings.TrimSpace(strings.TrimPrefix(msg.Content, "future:"))
		case strings.HasPrefix(msg.Content, "carry:"):
			carried = true
			lastFuture = strings.TrimSpace(strings.TrimPrefix(msg.Content, "carry:"))
		}
	}
	if stepsDone >= len(tpl.Steps) {
		return Response{Stop: true, Content: "workflow complete"}, nil
	}

	m.calls++
	if m.WrongCallEvery > 0 && m.calls%m.WrongCallEvery == 0 {
		return Response{Call: &Call{
			Function: "nonexistent_tool_from_futures",
			Args:     map[string]string{"future_ids": lastFuture},
		}}, nil
	}

	app := tpl.Steps[stepsDone]
	if stepsDone == 0 && !carried {
		file := extractFile(goalMsg)
		return Response{Call: &Call{
			Function: app + "_from_file",
			Args:     map[string]string{"files": file},
		}}, nil
	}
	return Response{Call: &Call{
		Function: app + "_from_futures",
		Args:     map[string]string{"future_ids": lastFuture},
	}}, nil
}

func (m *MockLLM) matchTemplate(conv *Conversation) (WorkflowTemplate, string, error) {
	for _, msg := range conv.Messages {
		if msg.Role != RoleUser || strings.HasPrefix(msg.Content, "future:") {
			continue
		}
		for _, tpl := range m.Templates {
			if strings.Contains(strings.ToLower(msg.Content), tpl.Goal) {
				return tpl, msg.Content, nil
			}
		}
	}
	return WorkflowTemplate{}, "", fmt.Errorf("llmwf: no template matches the instruction")
}

// extractFile pulls a path-looking token from the instruction ("run ... on
// sample.vcf"), defaulting to input.dat.
func extractFile(goal string) string {
	for _, w := range strings.Fields(goal) {
		if strings.Contains(w, ".") && !strings.HasSuffix(w, ".") {
			return strings.Trim(w, ",;")
		}
	}
	return "input.dat"
}
