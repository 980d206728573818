"""One interactive episode, narrated step by step.

The green folder sat on one of two visually identical kitchen cabinets on the
final patrol day and was put inside it before the task started. Captions say
only "a green folder on the white cabinet", so the searcher re-inspects the
raw observation to learn which cabinet, then navigates, opens, and picks.
"""

from objsearch.bench import SuiteConfig, build_task, prepare_task, run_task_episode

task = build_task(scene_id=1, family="attribute", task_type="interactive", idx=0, seed=7)
print(f"instruction: {task.instruction!r}")
print(f"ground-truth target: {task.target_entity}")
print("target moves:", [
    (m.day, m.tick_of_day, m.location.kind, m.location.ref)
    for m in task.schedule.moves if m.entity_id == task.target_entity
])
print()

config = SuiteConfig(methods=("star",), modes=("oracle",), seed=7)
memories, graphs, embedder, world = prepare_task(task, config)
memory = memories["oracle"]


def narrate(k, action, outcome, rationale=""):
    payload = outcome.payload
    if outcome.kind == "retrieval":
        if "record" in payload:
            rec = payload["record"]
            spots = {e["entity_id"]: e["landmark_id"] for e in rec["entities"]}
            print(f"{k:2d}. {action.tool}({action.args}) -> raw entities {spots}")
        else:
            hits = payload.get("hits", [])
            top = hits[0]["caption"][:60] if hits else "no hits"
            print(f"{k:2d}. {action.tool}({list(action.args.values())}) -> {len(hits)} hits, top: {top!r}")
    elif outcome.kind == "perception":
        ids = [e["entity_id"] for e in payload["entities"]]
        print(f"{k:2d}. detect -> {ids}")
    else:
        print(f"{k:2d}. {action.tool}({action.args}) -> success={payload.get('success')} "
              f"{payload.get('reason', '')}")


result = run_task_episode(task, "star", config, memory, graphs, embedder, world, narrate)
print(f"\nsuccess={result.success} in {result.steps_used} steps "
      f"({result.action_counts})")

print("\nthe one-shot baselines on the same task:")
for method in ("tr_s", "sg_s", "random"):
    r = run_task_episode(task, method, config, memory, graphs, embedder, world)
    print(f"  {method:7s} success={r.success} steps={r.steps_used} termination={r.termination}")
