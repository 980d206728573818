"""Scripted policies over the unified action space.

Every policy here decides as a pure function of (instruction text, working
memory, remaining budget, registry schema), so fixed seeds replay identical
episodes. None of them can touch world state or long-term memory except
through the actions they emit. Their tuning values (SEMANTIC_R,
COMMIT_THRESHOLD, MAX_FETCHES) are module constants, not arguments, and each
rule they share is stated once: a present-tense landmark reference is
ParsedInstruction.present_landmark, the newest fetched sighting of an entity
TraceView._newest_fetched.

The state a decision reads is a TraceView, a fold over the trace's steps. A
policy instance keeps its last view (one entry, for as long as the instance
lives; bench builds one per episode) and, when the next call's trace extends
the one it folded for the same instruction, folds only the new steps;
anything else gets a fresh view. The fold is deterministic and the fresh
view is the same value, so the memo cannot be seen in replay: a decision
depends on the call's arguments alone, whatever the instance saw before.
Because the view is advanced in place, an instance must not be called from
two threads at once.

Retrieved captions repeat heavily across records, so each distinct caption
is parsed once into a bounded module-level memo (a pure function of the
text, hence invisible to replay); captions share their phrases, so a second
memo keeps one parsed entity per distinct phrase. Each view also remembers,
per caption, which of its entities match the instruction, so a record's
matches are found once, when the fold first sees its hit.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional

from ..core import Action, Hits, Outcome, WorkingMemory, stable_seed
from .loop import PolicyDecision
from .registry import R_MAX

ATTRIBUTE_VOCAB = frozenset(
    {"red", "blue", "green", "black", "white", "yellow", "grey", "small", "large", "oak"}
)

# Tuning values shared by every instance: the top r of a semantic (and TR+S's
# spatial) query, the remaining budget at which STAR stops querying memory and
# commits to physical search, and the most raw observations STAR fetches.
SEMANTIC_R = 25
COMMIT_THRESHOLD = 4
MAX_FETCHES = 5


# ---------------------------------------------------------------------------
# Instruction and caption parsing


@dataclass(frozen=True)
class ParsedInstruction:
    class_label: str
    attributes: tuple[str, ...]
    landmark_phrase: Optional[str]
    day_ref: Optional[str]  # "yesterday" | "usually" | "past" | None

    @property
    def descriptor(self) -> str:
        return " ".join([*self.attributes, self.class_label])

    @property
    def query_text(self) -> str:
        """Semantic-query text: the descriptor plus any landmark phrase."""
        if self.landmark_phrase:
            return f"{self.descriptor} {self.landmark_phrase}"
        return self.descriptor

    @property
    def present_landmark(self) -> Optional[str]:
        """The landmark phrase of a present-tense reference ("the mug on the
        desk"): the instruction itself names where the object stands now."""
        return self.landmark_phrase if self.day_ref is None else None

    def matches(self, class_label: str, attributes: Iterable[str]) -> bool:
        """An entity matches when its class is the instruction's and it has
        every attribute the instruction names."""
        return class_label == self.class_label and set(self.attributes).issubset(attributes)


def _split_descriptor(descr: str) -> tuple[tuple[str, ...], str]:
    tokens = descr.strip().split()
    attrs = tuple(t for t in tokens[:-1] if t in ATTRIBUTE_VOCAB)
    cls = tokens[-1] if tokens else ""
    return attrs, cls


_PATTERNS = [
    ("usually", re.compile(r"^(?:find|bring me) the (.+?) that is usually (?:by|on|at) the (.+?)\.?$")),
    ("yesterday", re.compile(r"^(?:find|bring me) the (.+?) that was (?:by|on|at) the (.+?) yesterday\.?$")),
    ("past", re.compile(r"^(?:find|bring me) the (.+?) that was (?:by|on|at) the (.+?)\.?$")),
    ("current", re.compile(r"^(?:find|bring me) the (.+?) (?:on|by|at) the (.+?)\.?$")),
    ("plain", re.compile(r"^(?:find|bring me) the (.+?)\.?$")),
]
_PARSE_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=_PARSE_MEMO_SIZE)
def parse_instruction(text: str) -> ParsedInstruction:
    """Template-grammar parse of an instruction into object and reference
    parts, memoized: every decision of an episode parses its instruction."""
    lowered = text.strip().lower()
    for kind, pattern in _PATTERNS:
        m = pattern.match(lowered)
        if not m:
            continue
        attrs, cls = _split_descriptor(m.group(1))
        landmark = m.group(2) if kind != "plain" else None
        day_ref = {"usually": "usually", "yesterday": "yesterday", "past": "past"}.get(kind)
        return ParsedInstruction(cls, attrs, landmark, day_ref)
    attrs, cls = _split_descriptor(lowered)
    return ParsedInstruction(cls, attrs, None, None)


@dataclass(frozen=True)
class CaptionEntity:
    class_label: str
    attributes: tuple[str, ...]
    landmark_name: str
    contained: bool


_PHRASE_RE = re.compile(r"^a (.+?) (on|inside) the (.+)$")


@functools.lru_cache(maxsize=_PARSE_MEMO_SIZE)
def _parse_phrase(phrase: str) -> Optional[CaptionEntity]:
    m = _PHRASE_RE.match(phrase.strip())
    if not m:
        return None
    attrs, cls = _split_descriptor(m.group(1))
    return CaptionEntity(
        class_label=cls,
        attributes=attrs,
        landmark_name=m.group(3),
        contained=(m.group(2) == "inside"),
    )


@functools.lru_cache(maxsize=_PARSE_MEMO_SIZE)
def parse_caption(caption: str) -> tuple[CaptionEntity, ...]:
    """Invert the caption template back into entity phrases (memoized)."""
    parsed = (_parse_phrase(part) for part in caption.split("; "))
    return tuple(ent for ent in parsed if ent is not None)


# ---------------------------------------------------------------------------
# Trace inspection shared by the scripted policies


class HitMatch(NamedTuple):
    """One instruction-matching entity phrase found in a retrieval hit. A
    named tuple because a semantic query makes up to r per step, and a tuple
    is built several times faster than a frozen dataclass."""

    record_index: int
    t: int
    day: int
    landmark_name: str
    contained: bool
    attributes: tuple[str, ...] = ()


class TraceView:
    """Derived view of the working memory for decision making, folded one
    step at a time: advance(h) folds only the steps h added since the view
    last saw the trace."""

    def __init__(self, h: WorkingMemory, parsed: ParsedInstruction):
        self.parsed = parsed
        self.steps: tuple[tuple[Action, Outcome], ...] = ()
        self.hits: set[int] = set()  # record indices seen in retrieval hits
        self.fetched: dict[int, dict] = {}
        self.queries: list[Action] = []
        self.navigated: set[str] = set()
        self.open_step: dict[str, int] = {}  # receptacle -> the step that last opened it
        self.detections: list[tuple[int, Optional[str], list[dict]]] = []
        self.picked_ok: set[str] = set()
        self.pick_failed: set[str] = set()
        self.last_day: Optional[int] = None
        self.first_hit: Optional[dict] = None
        self.focus: Optional[str] = None
        # Caption -> its entities that match the instruction; record index ->
        # the HitMatches of its hit (only hits with any); the flat list that
        # matches() returns, None when a fold added a match since.
        self._caption_matches: dict[str, tuple[CaptionEntity, ...]] = {}
        self._hit_matches: dict[int, tuple[HitMatch, ...]] = {}
        self._matches: Optional[list[HitMatch]] = []
        self.advance(h)

    def advance(self, h: WorkingMemory) -> "TraceView":
        """Fold the steps of h past the ones already folded; h must extend
        the trace this view has seen (see trace_view)."""
        for step in range(len(self.steps), len(h.steps)):
            self._fold(step, *h.steps[step])
        self.steps = h.steps
        return self

    def _fold(self, step: int, action: Action, outcome: Outcome) -> None:
        payload = outcome.payload
        if outcome.kind == "retrieval":
            self.queries.append(action)
            hits = payload.get("hits", ())
            if self.first_hit is None and hits:
                self.first_hit = hits[0]
            if payload.get("last_day") is not None:
                self.last_day = payload["last_day"]
            if isinstance(hits, Hits):
                index, captions, ts, days = hits.record_index, hits.caption, hits.t, hits.day
            else:  # hit dicts: the columns the fold reads
                index, captions, ts, days = ([hit[k] for hit in hits] for k in ("record_index", "caption", "t", "day"))
            # Fold each unseen hit; a caption is matched once per view.
            seen, matched, new = self.hits, self._caption_matches, tuple.__new__
            for idx, caption, t, day in zip(index, captions, ts, days):
                if idx in seen:
                    continue
                seen.add(idx)
                ents = matched.get(caption)
                if ents is None:
                    ents = self._match_caption(caption)
                if ents:  # HitMatch(...) by tuple.__new__, without its Python-level __new__
                    self._hit_matches[idx] = tuple(
                        [new(HitMatch, (idx, t, day, e.landmark_name, e.contained, e.attributes)) for e in ents]
                    )
                    self._matches = None
            rec = payload.get("record")
            if rec is not None:
                self.fetched.setdefault(rec["record_index"], rec)
        elif outcome.kind == "perception":
            self.detections.append((step, self.focus, payload.get("entities", [])))
        elif outcome.kind == "skill_result":
            if action.tool == "navigate" and payload.get("success"):
                self.focus = action.args.get("landmark")
                self.navigated.add(self.focus)
            elif action.tool == "open" and payload.get("success"):
                self.open_step[action.args.get("receptacle")] = step
            elif action.tool == "pick":
                entity = action.args.get("entity", "")
                if payload.get("success"):
                    self.picked_ok.add(entity)
                else:
                    self.pick_failed.add(entity)

    def _match_caption(self, caption: str) -> tuple[CaptionEntity, ...]:
        """The caption's instruction-matching entities, kept per caption."""
        ents = tuple(
            ent for ent in parse_caption(caption) if self.parsed.matches(ent.class_label, ent.attributes)
        )
        self._caption_matches[caption] = ents
        return ents

    def issued(self, tool: str, **args: Any) -> bool:
        for a in self.queries:
            if a.tool == tool and all(a.args.get(k) == v for k, v in args.items()):
                return True
        return False

    def matches(self) -> list[HitMatch]:
        """Instruction-matching phrases across all retrieval hits, by record order."""
        if self._matches is None:
            self._matches = [m for idx in sorted(self._hit_matches) for m in self._hit_matches[idx]]
        return list(self._matches)

    def fresh_detection(self, landmark_id: str) -> Optional[list[dict]]:
        """Entities from the latest detection taken while focused at the
        landmark since it was last opened, so they reflect its opened state."""
        after = self.open_step.get(landmark_id, -1)
        for step, focus, entities in reversed(self.detections):
            if focus == landmark_id and step > after:
                return entities
        return None

    def _newest_fetched(self, wanted: Callable[[dict], bool]) -> Optional[tuple[dict, dict]]:
        """(record, entity) of the newest fetched raw sighting of an entity
        that wanted accepts; ties go to the record fetched first."""
        best: Optional[tuple[dict, dict]] = None
        for rec in self.fetched.values():
            for ent in rec.get("entities", []):
                if wanted(ent) and (best is None or rec["t"] > best[0]["t"]):
                    best = (rec, ent)
        return best

    def target_from_fetched(self) -> Optional[dict]:
        """Exact target entity pinned down by a fetched raw observation.

        Instructions with a landmark phrase identify the object through that
        landmark, so only sightings at the referenced landmark resolve the
        identity; plain instructions accept any class/attribute match.
        """
        parsed, phrase = self.parsed, self.parsed.landmark_phrase
        found = self._newest_fetched(
            lambda ent: parsed.matches(ent["class_label"], ent["attributes"])
            and (phrase is None or ent["landmark_name"] == phrase)
        )
        return found[1] if found else None

    def entity_sighting(self, entity_id: str) -> Optional[dict]:
        """Latest fetched raw sighting of a specific entity."""
        found = self._newest_fetched(lambda ent: ent["entity_id"] == entity_id)
        if found is None:
            return None
        rec, ent = found
        return {
            "t": rec["t"],
            "landmark_id": ent["landmark_id"],
            "containment": ent["containment"],
        }


def trace_view(last: Optional[TraceView], h: WorkingMemory, parsed: ParsedInstruction) -> TraceView:
    """The view of h for parsed: last advanced to h when it was made for the
    same instruction and h extends the trace it has folded, else a fresh one.

    The prefix check compares step tuples, identity first; WorkingMemory.append
    keeps each step's tuple, so within an episode it costs a pointer compare
    per step."""
    if last is not None and last.parsed == parsed and h.steps[: len(last.steps)] == last.steps:
        return last.advance(h)
    return TraceView(h, parsed)


# ---------------------------------------------------------------------------
# Schema helpers


def schema_landmarks(schema: Mapping[str, Any]) -> list[dict]:
    return list(schema.get("landmarks", []))


def landmarks_named(schema: Mapping[str, Any], name: str) -> list[dict]:
    return [lm for lm in schema_landmarks(schema) if lm["name"] == name]


def landmark_entry(schema: Mapping[str, Any], landmark_id: str) -> Optional[dict]:
    for lm in schema_landmarks(schema):
        if lm["id"] == landmark_id:
            return lm
    return None


def room_landmarks(schema: Mapping[str, Any], room: str) -> list[dict]:
    return [lm for lm in schema_landmarks(schema) if lm["room"] == room]


def _detection_match(
    entities: Iterable[Mapping[str, Any]],
    parsed: ParsedInstruction,
    target_id: Optional[str],
    exclude: set[str],
    landmark_phrase: Optional[str] = None,
) -> Optional[str]:
    """Entity id to pick from a detection: the known target id if present,
    else the first class/attribute match in id order, optionally restricted
    to entities at the referenced landmark."""
    entities = list(entities)
    if target_id is not None:
        for ent in entities:
            if ent["entity_id"] == target_id and target_id not in exclude:
                return target_id
        return None
    candidates = [
        e
        for e in sorted(entities, key=lambda e: e["entity_id"])
        if parsed.matches(e["class_label"], e["attributes"]) and e["entity_id"] not in exclude
    ]
    if landmark_phrase is not None:
        anchored = [e for e in candidates if e["landmark_name"] == landmark_phrase]
        if anchored:
            candidates = anchored
    return candidates[0]["entity_id"] if candidates else None


def _semantic_action(parsed: ParsedInstruction) -> Action:
    """The instruction's semantic query: its descriptor and any landmark
    phrase, top SEMANTIC_R."""
    return Action("semantic_query", {"query": parsed.query_text, "r": SEMANTIC_R})


def _window_action(day: int) -> Action:
    """A whole day's window, one hit per run of identical records: a run's
    newest record stands for the run, and within a run only record_index and
    t change, so the view's newest sighting per landmark is the same as from
    every record of the day."""
    return Action("temporal_query", {"day_start": day, "day_end": day, "r": R_MAX, "per": "run"})


# ---------------------------------------------------------------------------
# Random baseline


class RandomSearchPolicy:
    """Lower bound: navigate to random landmarks, detect, grab a naive class
    match. Never queries memory."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._view: Optional[TraceView] = None

    def __call__(
        self, instruction: str, h: WorkingMemory, remaining: int, schema: Mapping[str, Any]
    ) -> Optional[PolicyDecision]:
        parsed = parse_instruction(instruction)
        view = self._view = trace_view(self._view, h, parsed)
        if h.steps and h.steps[-1][0].tool == "navigate":
            return PolicyDecision(Action("detect"))
        if h.steps and h.steps[-1][0].tool == "detect":
            entities = h.steps[-1][1].payload.get("entities", [])
            entity = _detection_match(entities, parsed, None, view.picked_ok | view.pick_failed)
            if entity is not None:
                return PolicyDecision(Action("pick", {"entity": entity}))
        landmarks = schema_landmarks(schema)
        if not landmarks:
            return None
        rng = random.Random(stable_seed("random-policy", self.seed, instruction, len(h.steps)))
        target = landmarks[rng.randrange(len(landmarks))]["id"]
        return PolicyDecision(Action("navigate", {"landmark": target}))


# ---------------------------------------------------------------------------
# Temporal retrieval + one-shot plan


class TrPlusSPolicy:
    """Fixed temporal probe set, then a single navigate/(open)/detect/pick
    plan aimed at the most recent matching sighting. No replanning: when the
    plan does not produce the object, the policy gives up."""

    _view: Optional[TraceView] = None  # see trace_view

    def _probes(self, parsed: ParsedInstruction, view: TraceView) -> list[Action]:
        probes = [_semantic_action(parsed)]
        if parsed.day_ref == "yesterday" and view.last_day is not None:
            probes.append(_window_action(view.last_day))
        if view.first_hit is not None:
            hit = view.first_hit
            probes.append(
                Action("spatial_query", {"x": hit["x"], "y": hit["y"], "radius": 2.5, "r": SEMANTIC_R})
            )
        return probes

    def _plan(
        self, parsed: ParsedInstruction, view: TraceView, schema: Mapping[str, Any]
    ) -> Optional[list[Action]]:
        landmark: Optional[str] = None
        contained = False
        if parsed.present_landmark is not None:
            named = landmarks_named(schema, parsed.present_landmark)
            if named:
                landmark = named[0]["id"]
        if landmark is None:
            matches = view.matches()
            if parsed.landmark_phrase is not None:
                anchored = [m for m in matches if m.landmark_name == parsed.landmark_phrase]
                if anchored:
                    matches = anchored
            if not matches:
                return None
            latest = max(matches, key=lambda m: m.t)
            named = landmarks_named(schema, latest.landmark_name)
            if not named:
                return None
            landmark = named[0]["id"]
            contained = latest.contained
        plan = [Action("navigate", {"landmark": landmark})]
        if contained:
            plan.append(Action("open", {"receptacle": landmark}))
        plan.append(Action("detect"))
        plan.append(Action("pick", {"entity": ""}))  # entity resolved at pick time
        return plan

    def __call__(
        self, instruction: str, h: WorkingMemory, remaining: int, schema: Mapping[str, Any]
    ) -> Optional[PolicyDecision]:
        parsed = parse_instruction(instruction)
        view = self._view = trace_view(self._view, h, parsed)
        done = len(h.steps)
        probes = self._probes(parsed, view)
        if done < len(probes):
            return PolicyDecision(probes[done])
        plan = self._plan(parsed, view, schema)
        plan_step = done - len(probes)
        if plan is None or plan_step >= len(plan):
            return None
        action = plan[plan_step]
        if action.tool == "pick":
            entities = view.fresh_detection(view.focus or "") or []
            entity = _detection_match(entities, parsed, None, view.picked_ok, parsed.present_landmark)
            if entity is None:
                return None
            return PolicyDecision(Action("pick", {"entity": entity}))
        return PolicyDecision(action)


# ---------------------------------------------------------------------------
# Scene graphs + one-shot plan


class SgPlusSPolicy:
    """Resolves the instruction against per-day scene-graph snapshots, then
    makes a single attempt at the node's last observable location.

    Contents of closed receptacles are treated as unobservable (a graph built
    from patrols only contains what was in view), and visually identical
    receptacles cannot be re-identified at execution time: when the plan lands
    on one, the policy chooses uniformly among its twins.
    """

    def __init__(self, scene_graphs: list, seed: int = 0):
        self.graphs = sorted(scene_graphs, key=lambda g: g.day)
        self.seed = seed

    def _visible_location(self, graph, node_id: str) -> Optional[tuple[str, str]]:
        for _, rel, dst in graph.edges_from(node_id):
            if rel == "at":
                return rel, dst
            if rel == "inside":
                recep = graph.node(dst)
                if recep is not None and recep.get("open"):
                    return rel, dst
        return None

    def _object_nodes(self, parsed: ParsedInstruction) -> list[str]:
        if not self.graphs:
            return []
        out = []
        for node in self.graphs[-1].nodes:
            if node.get("kind") != "object":
                continue
            if parsed.matches(node.get("label"), node.get("attributes", [])):
                out.append(node["id"])
        return sorted(out)

    def _landmark_name(self, graph, landmark_id: str) -> Optional[str]:
        node = graph.node(landmark_id)
        return None if node is None else node.get("label")

    def _resolve(self, parsed: ParsedInstruction) -> Optional[tuple[str, str, str]]:
        """Return (target node id, relation, landmark id) or None."""
        candidates = self._object_nodes(parsed)
        if not candidates:
            return None
        if parsed.landmark_phrase is not None:
            if parsed.day_ref in ("past", "usually"):
                graphs = list(self.graphs)
            else:
                graphs = [self.graphs[-1]]
            scored: list[tuple[int, str]] = []
            for node_id in candidates:
                days_at_ref = 0
                for g in graphs:
                    loc = self._visible_location(g, node_id)
                    if loc and self._landmark_name(g, loc[1]) == parsed.landmark_phrase:
                        days_at_ref += 1
                if days_at_ref:
                    scored.append((days_at_ref, node_id))
            if not scored:
                return None
            scored.sort(key=lambda s: (-s[0], s[1]))
            target = scored[0][1]
        else:
            target = candidates[0]
        for g in reversed(self.graphs):
            loc = self._visible_location(g, target)
            if loc is not None:
                return target, loc[0], loc[1]
        return None

    def _twin_choice(self, instruction: str, schema: Mapping[str, Any], landmark_id: str) -> str:
        entry = landmark_entry(schema, landmark_id)
        if entry is None or not entry.get("receptacle"):
            return landmark_id
        twins = sorted(
            lm["id"]
            for lm in schema_landmarks(schema)
            if lm["name"] == entry["name"] and lm["room"] == entry["room"] and lm.get("receptacle")
        )
        if len(twins) < 2:
            return landmark_id
        rng = random.Random(stable_seed("sg-twin", self.seed, instruction))
        return twins[rng.randrange(len(twins))]

    def __call__(
        self, instruction: str, h: WorkingMemory, remaining: int, schema: Mapping[str, Any]
    ) -> Optional[PolicyDecision]:
        parsed = parse_instruction(instruction)
        resolved = self._resolve(parsed)
        if resolved is None:
            return None
        target, relation, landmark_id = resolved
        landmark_id = self._twin_choice(instruction, schema, landmark_id)
        entry = landmark_entry(schema, landmark_id)
        plan: list[Action] = [Action("navigate", {"landmark": landmark_id})]
        if relation == "inside" or (entry is not None and entry.get("receptacle")):
            plan.append(Action("open", {"receptacle": landmark_id}))
        plan.append(Action("detect"))
        plan.append(Action("pick", {"entity": target}))
        done = len(h.steps)
        if done >= len(plan):
            return None
        return PolicyDecision(plan[done])


# ---------------------------------------------------------------------------
# Interleaved temporal/spatial search


class StarScriptedPolicy:
    """Interleaves memory queries with physical probing.

    Forms location hypotheses from retrieval, re-inspects raw observations to
    pin down exact entities and landmarks (this is what disambiguates twin
    receptacles), probes hypotheses with navigate/detect, opens the remembered
    receptacle when the target is not in the open, and falls back to a
    class-to-room prior plus a per-room sweep when memory offers nothing.
    Once the remaining budget reaches COMMIT_THRESHOLD it stops issuing
    temporal actions and spends the rest on its best physical options.
    """

    def __init__(self, prior_table: Optional[Mapping[str, str]] = None):
        self.prior_table = dict(prior_table or {})
        self._view: Optional[TraceView] = None

    def _wanted_windows(self, parsed: ParsedInstruction, view: TraceView) -> list[int]:
        if view.last_day is None:
            return []
        if parsed.day_ref == "usually":
            return list(range(view.last_day + 1))
        if parsed.day_ref in ("yesterday", "past"):
            return [view.last_day]
        return []

    def __call__(
        self, instruction: str, h: WorkingMemory, remaining: int, schema: Mapping[str, Any]
    ) -> Optional[PolicyDecision]:
        parsed = parse_instruction(instruction)
        view = self._view = trace_view(self._view, h, parsed)
        committed = remaining <= COMMIT_THRESHOLD

        # Gather temporal evidence.
        if not committed:
            if not view.issued("semantic_query"):
                return PolicyDecision(_semantic_action(parsed))
            for day in self._wanted_windows(parsed, view):
                if not view.issued("temporal_query", day_start=day, day_end=day):
                    return PolicyDecision(_window_action(day))

        matches = view.matches()
        target = view.target_from_fetched()
        target_id = target["entity_id"] if target else None
        target_attrs = tuple(target["attributes"]) if target else ()

        # Pin identity and exact landmarks by re-inspecting raw observations.
        if not committed and matches and len(view.fetched) < MAX_FETCHES:
            fetch_index = self._fetch_wanted(parsed, view, matches, target_id, target_attrs)
            if fetch_index is not None:
                return PolicyDecision(Action("fetch_raw", {"record_index": fetch_index}))

        # Probe ranked hypotheses physically.
        for landmark_id, allow_open in self._hypotheses(parsed, view, schema, matches, target_id):
            decision = self._probe(view, schema, landmark_id, target_id, allow_open)
            if decision is not None:
                return decision

        # Hypotheses exhausted: requery the freshest day once, then sweep.
        if (
            not committed
            and matches
            and view.last_day is not None
            and not view.issued("temporal_query", day_start=view.last_day, day_end=view.last_day)
        ):
            return PolicyDecision(_window_action(view.last_day))
        return self._sweep(parsed, view, schema, matches, target_id)

    def _fetch_wanted(
        self,
        parsed: ParsedInstruction,
        view: TraceView,
        matches: list[HitMatch],
        target_id: Optional[str],
        target_attrs: tuple[str, ...] = (),
    ) -> Optional[int]:
        def unfetched(ms: Iterable[HitMatch]) -> Optional[int]:
            for m in sorted(ms, key=lambda m: -m.t):
                if m.record_index not in view.fetched:
                    return m.record_index
            return None

        if target_id is None:
            if parsed.landmark_phrase is not None:
                anchored = [m for m in matches if m.landmark_name == parsed.landmark_phrase]
                idx = unfetched(anchored)
                if idx is not None:
                    return idx
            return unfetched(matches)
        # Identity known: chase its newest sighting; phrases whose attributes
        # contradict the target's belong to same-class distractors.
        sighting = view.entity_sighting(target_id)
        known_t = sighting["t"] if sighting else -1
        plausible = [
            m
            for m in matches
            if m.t > known_t and (not m.attributes or set(m.attributes) <= set(target_attrs))
        ]
        return unfetched(plausible)

    def _hypotheses(
        self,
        parsed: ParsedInstruction,
        view: TraceView,
        schema: Mapping[str, Any],
        matches: list[HitMatch],
        target_id: Optional[str],
    ) -> list[tuple[str, bool]]:
        """Ranked (landmark id, may-open) probes."""
        out: list[tuple[str, bool]] = []
        seen: set[str] = set()

        def add(landmark_id: Optional[str], allow_open: bool) -> None:
            if landmark_id and landmark_id not in seen:
                seen.add(landmark_id)
                out.append((landmark_id, allow_open))

        if target_id is not None:
            # The identity is pinned; only its own sightings are worth probing.
            sighting = view.entity_sighting(target_id)
            if sighting is not None:
                add(sighting["landmark_id"], True)
            return out
        if parsed.present_landmark is not None:
            # The named landmark is hypothesis one.
            for lm in landmarks_named(schema, parsed.present_landmark):
                add(lm["id"], bool(lm.get("receptacle")))
        # Caption-level sightings, newest first. Ambiguous twin names fall
        # back to every twin in id order unless a fetch pinned the exact one.
        for m in sorted(matches, key=lambda m: -m.t):
            for lm in landmarks_named(schema, m.landmark_name):
                add(lm["id"], m.contained or bool(lm.get("receptacle")))
        return out

    def _probe(
        self,
        view: TraceView,
        schema: Mapping[str, Any],
        landmark_id: str,
        target_id: Optional[str],
        allow_open: bool,
    ) -> Optional[PolicyDecision]:
        if landmark_id not in view.navigated:
            return PolicyDecision(Action("navigate", {"landmark": landmark_id}))
        if view.focus != landmark_id:
            # Probed earlier in the episode and already abandoned.
            return None
        entities = view.fresh_detection(landmark_id)
        if entities is None:
            return PolicyDecision(Action("detect"))
        entity = _detection_match(
            entities, view.parsed, target_id, view.picked_ok | view.pick_failed, view.parsed.present_landmark
        )
        if entity is not None:
            return PolicyDecision(Action("pick", {"entity": entity}))
        entry = landmark_entry(schema, landmark_id)
        if (
            allow_open
            and entry is not None
            and entry.get("receptacle")
            and landmark_id not in view.open_step
        ):
            return PolicyDecision(Action("open", {"receptacle": landmark_id}))
        return None

    def _sweep(
        self,
        parsed: ParsedInstruction,
        view: TraceView,
        schema: Mapping[str, Any],
        matches: list[HitMatch],
        target_id: Optional[str],
    ) -> Optional[PolicyDecision]:
        rooms = list(schema.get("rooms", []))
        prior_room = self.prior_table.get(parsed.class_label)
        ordered = [r for r in [prior_room] if r in rooms]
        ordered.extend(r for r in rooms if r not in ordered)
        # With no sightings but a usable prior, cover the prior room fully
        # (open air, then its receptacles) before moving on; otherwise check
        # open air everywhere first and leave receptacles for last.
        sweeps = (self._sweep_room_open_air, self._sweep_room_receptacles)
        if not matches and prior_room in rooms:
            phases = [(sweep, room) for room in ordered for sweep in sweeps]
        else:
            phases = [(sweep, room) for sweep in sweeps for room in ordered]
        for sweep, room in phases:
            decision = sweep(view, schema, room, target_id)
            if decision is not None:
                return decision
        return None

    def _sweep_room_open_air(
        self, view: TraceView, schema: Mapping[str, Any], room: str, target_id: Optional[str]
    ) -> Optional[PolicyDecision]:
        lms = room_landmarks(schema, room)
        if not lms:
            return None
        visited = [lm for lm in lms if lm["id"] in view.navigated]
        if not visited:
            preferred = next((lm for lm in lms if not lm.get("receptacle")), lms[0])
            return PolicyDecision(Action("navigate", {"landmark": preferred["id"]}))
        for lm in visited:
            decision = self._probe(view, schema, lm["id"], target_id, allow_open=False)
            if decision is not None and decision.action.tool in ("detect", "pick"):
                return decision
        return None

    def _sweep_room_receptacles(
        self, view: TraceView, schema: Mapping[str, Any], room: str, target_id: Optional[str]
    ) -> Optional[PolicyDecision]:
        for lm in room_landmarks(schema, room):
            if not lm.get("receptacle"):
                continue
            if lm["id"] in view.open_step and view.fresh_detection(lm["id"]) is not None:
                # Already opened and inspected.
                if view.focus != lm["id"]:
                    continue
            decision = self._probe(view, schema, lm["id"], target_id, allow_open=True)
            if decision is not None:
                return decision
        return None


__all__ = [
    "ATTRIBUTE_VOCAB",
    "COMMIT_THRESHOLD",
    "CaptionEntity",
    "HitMatch",
    "MAX_FETCHES",
    "ParsedInstruction",
    "RandomSearchPolicy",
    "SEMANTIC_R",
    "SgPlusSPolicy",
    "StarScriptedPolicy",
    "TraceView",
    "TrPlusSPolicy",
    "parse_caption",
    "parse_instruction",
    "trace_view",
]
