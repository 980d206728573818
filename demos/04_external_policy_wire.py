"""Drive an episode through the external-policy wire protocol.

A stand-in endpoint receives each canonical JSON request (instruction,
remaining budget, tool schemas, full trace) and replies with one tool call.
The first reply is deliberately malformed to show the reprompt-then-recover
path. Point LLMPolicyConfig at a real chat-completion server to swap in a
learned policy; nothing else changes.
"""

import json

from objsearch.agent import ChatCompletionPolicy, LLMPolicyConfig, default_registry, run_episode
from objsearch.agent.registry import ActionExecutor
from objsearch.bench import SuiteConfig, build_task, prepare_task

task = build_task(scene_id=1, family="class", task_type="visible", idx=0, seed=3)
config = SuiteConfig(methods=("llm",), modes=("oracle",), seed=3)
# The world comes back patrolled to task time; the episode runs on it.
memories, graphs, embedder, world = prepare_task(task, config)
memory = memories["oracle"]

scripted_replies = iter([
    "hmm, let me think about where the book might be",   # malformed: reprompted
    '{"tool": "semantic_query", "args": {"query": "book"}, "rationale": "recall"}',
    '{"tool": "navigate", "args": {"landmark": "bookshelf"}}',
    '{"tool": "detect", "args": {}}',
    '{"tool": "pick", "args": {"entity": "book_1"}}',
])


def fake_endpoint(url, payload, timeout):
    content = payload["messages"][-1]["content"]
    try:
        request = json.loads(content)
        print(f"-> endpoint got: budget={request.get('remaining_budget')} "
              f"trace_len={len(request.get('trace', []))}")
    except json.JSONDecodeError:
        print("-> endpoint got a reprompt:", content[:60], "...")
    return {"choices": [{"message": {"content": next(scripted_replies)}}]}


policy = ChatCompletionPolicy(LLMPolicyConfig(url="http://policy.example"), post=fake_endpoint)
executor = ActionExecutor(memory, world, task.schedule, embedder)
result = run_episode(
    task.instruction_full(), executor, policy, default_registry(world),
    budget=20, target_entity=task.target_entity,
)
print(f"\ninstruction: {task.instruction!r}")
for i, (action, outcome) in enumerate(result.trace.steps, start=1):
    print(f"{i}. {action.tool}({action.args})")
print(f"success={result.success} termination={result.termination}")
