"""Correctness checks on the pipeline's outputs, independent of its code paths.

Each check reads only the detections that went in and the tracked
objects and events that came out, and re-derives what must hold from
the alarm policy's numbers. A failure names the frame position and the
rule it broke; the runner counts failed frames into `failed`.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from streetwatch.alarm import AlarmPolicy


def stage_bands(policy: AlarmPolicy) -> Dict[int, Tuple[float, float, bool]]:
    """stage -> (lo, hi, lo_inclusive) as the policy defines the bands.

    Stock bands are closed. Cumulative bands reach down, exclusively, to the
    top of the next nearer band, and stage 3 down to zero.
    """
    ordered = sorted(policy.stages, key=lambda s: s.stage)
    bands = {}
    for k, st in enumerate(ordered):
        if policy.cumulative_bands:
            floor = ordered[k + 1].band_hi_cm if k + 1 < len(ordered) else 0.0
            bands[st.stage] = (floor, st.band_hi_cm, False)
        else:
            bands[st.stage] = (st.band_lo_cm, st.band_hi_cm, True)
    return bands


def check_stream(frames: Sequence, tracked_by_frame: Sequence, events_by_frame: Sequence, policy: AlarmPolicy) -> List[Tuple[int, str]]:
    """All rule breaks in one replayed stream, as (frame position, reason).

    Rules: one tracked object per detection, in detection order; object
    ids unique within a frame; an id given out fresh (matched_from null)
    never seen earlier in the stream; at most max_events_per_frame events;
    every event inside its stage's band, stamped with its frame's time and
    naming an object of that frame; no (object_id, stage) pair firing
    again within cooldown_ms.
    """
    bands = stage_bands(policy)
    seen_ids = set()
    last_fired: Dict[Tuple[int, int], int] = {}
    problems: List[Tuple[int, str]] = []
    for pos, (frame, tracked, events) in enumerate(zip(frames, tracked_by_frame, events_by_frame)):
        dets = frame.detections
        if len(tracked) != len(dets):
            problems.append((pos, f"{len(tracked)} tracked objects for {len(dets)} detections"))
        for obj, det in zip(tracked, dets):
            if obj.frame_id != frame.frame_id or obj.category != det.category or obj.bbox != det.bbox:
                problems.append((pos, f"object {obj.object_id} does not mirror its detection"))
        ids = [obj.object_id for obj in tracked]
        if len(set(ids)) != len(ids):
            problems.append((pos, f"duplicate object ids {sorted(ids)}"))
        for obj in tracked:
            if obj.matched_from is None and obj.object_id in seen_ids:
                problems.append((pos, f"fresh id {obj.object_id} was already used"))
        seen_ids.update(ids)

        if len(events) > policy.max_events_per_frame:
            problems.append((pos, f"{len(events)} events, cap is {policy.max_events_per_frame}"))
        present = set(ids)
        for ev in events:
            lo, hi, lo_inclusive = bands.get(ev.stage, (0.0, -1.0, True))
            above_lo = ev.distance_cm >= lo if lo_inclusive else ev.distance_cm > lo
            if not (above_lo and ev.distance_cm <= hi):
                problems.append((pos, f"stage {ev.stage} event at {ev.distance_cm} cm is outside its band"))
            if ev.t_ms != frame.t_ms or ev.object_id not in present:
                problems.append((pos, f"event for object {ev.object_id} does not belong to this frame"))
            key = (ev.object_id, ev.stage)
            last = last_fired.get(key)
            if last is not None and ev.t_ms - last < policy.cooldown_ms:
                problems.append((pos, f"object {ev.object_id} stage {ev.stage} fired again after {ev.t_ms - last} ms"))
            last_fired[key] = ev.t_ms
    return problems


def differing_frames(reference: Sequence[Sequence[str]], lines: Sequence[str]) -> List[int]:
    """Frame positions whose lines differ between a per-frame reference and a flat stream."""
    bad = []
    k = 0
    for pos, expected in enumerate(reference):
        got = list(lines[k : k + len(expected)])
        if got != list(expected):
            bad.append(pos)
        k += len(expected)
    if k != len(lines) and reference:
        bad.append(len(reference) - 1)
    return sorted(set(bad))
