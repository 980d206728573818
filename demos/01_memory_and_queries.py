"""Build a long-term memory from a patrol and query it three ways.

The robot patrols scene 1 for three days, captioning what it sees. Memory
construction is task-agnostic: it only stores. At query time we ask by
meaning, by time and by place, and finish by re-inspecting one raw
observation, which carries the exact entity and landmark identities that the
caption blurs.
"""

from objsearch.embed import Embedder, EmbedderConfig
from objsearch.homesim import generate_world, patrol
from objsearch.memstore import build

world, schedule = generate_world(layout_seed=7, scene_id=1)
print(f"world: {len(world.rooms)} rooms, {len(world.landmarks)} landmarks, "
      f"{len(world.objects)} objects")

stream = patrol(world, schedule, days=3)
print(f"patrol: {len(stream)} observations over 3 days\n")

embedder = Embedder(EmbedderConfig(d=256))
memory = build(stream, embedder, mode="oracle", ticks_per_day=world.ticks_per_day)

print("semantic: 'green folder'")
result = memory.query_semantic("green folder", embedder, r=3)
for index, score in result.hits:
    rec = memory.record(index)
    print(f"  #{index:3d}  t={rec.t.value:3d} day={rec.t.day}  cos={score:.3f}  {rec.raw.caption[:70]}")

print("\ntemporal: around t=300")
result = memory.query_temporal(t_center=300, r=3)
for index, dist in result.hits:
    rec = memory.record(index)
    print(f"  #{index:3d}  t={rec.t.value:3d}  |dt|={dist:.0f}  {rec.raw.caption[:70]}")

print("\ntemporal: everything from day 1, most recent first")
result = memory.query_temporal(day_window=(1, 1), r=3)
for index, tval in result.hits:
    print(f"  #{index:3d}  t={tval:.0f}")

print("\nspatial: within 2 m of the study desk")
desk = world.landmarks["study_desk"].position
result = memory.query_spatial(desk, radius=2.0, r=3)
for index, dist in result.hits:
    rec = memory.record(index)
    print(f"  #{index:3d}  {dist:.2f} m  room={rec.pose.room_id}")

best = memory.query_semantic("green folder", embedder, r=1).indices[0]
raw = memory.fetch_raw(best)
print(f"\nraw re-inspection of record #{best}:")
for ent in raw.visible_entities:
    print(f"  {ent.entity_id:12s} {ent.class_label:9s} at {ent.landmark_id} ({ent.containment})")
