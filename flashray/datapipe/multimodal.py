"""Multimodal columns: image/audio/video as opaque binary columns with REAL
decoders (pure numpy/struct — flashray/datapipe/codecs.py).

Images are genuine 24-bit BMP files, audio is genuine PCM-16 RIFF/WAV, and
video is an FRV1 frame container of BMP frames; the feature / frame-sample
stages parse the actual binary formats (verified round-trip in tests).
Every Ray-side stage is a plain ``map_batches`` function run as a task:
the decoder dispatch table and fingerprint weights are module constants,
batches are zero-copy Arrow, and 1→N frame expansion happens inside the
batch function.

Batch-size guidance: binary payloads are large — keep ``batch_size`` small
(64–256) and ``batch_format="pyarrow"`` (binary columns do not round-trip
through pandas cleanly —
https://docs.ray.io/en/latest/data/working-with-tensors.html).

Covers SURVEY.md §2 "multimodal columns" (decode / feature-extract /
resize / frame-sample as map_batches task stages).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from flashray.datapipe import codecs

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),  # image | audio | video
        ("payload", pa.binary()),
        ("mime", pa.string()),
        ("meta", pa.string()),  # JSON sidecar (width/height/duration/...)
    ]
)

# Deterministic synthesis constants — the SQL oracles re-derive expected
# features from these closed forms (see __ray_entry__.oracle_sql).
IMG_H = IMG_W = 8
AUDIO_SAMPLES = 256
AUDIO_RATE = 8000
VIDEO_FRAMES = 4
PIX_MULT = 37  # image pixel i of doc d: (d*37 + i) % 256
FRAME_MULT = 97  # video frame f adds f*97
AUD_MULT, AUD_STEP = 31, 7  # audio sample t: ((d*31 + t*7) % 65536) - 32768


def _synth_image(doc_id: int, frame: int = 0) -> np.ndarray:
    i = np.arange(IMG_H * IMG_W * 3, dtype=np.int64)
    px = (doc_id * PIX_MULT + frame * FRAME_MULT + i) % 256
    return px.astype(np.uint8).reshape(IMG_H, IMG_W, 3)


def _synth_audio(doc_id: int) -> np.ndarray:
    t = np.arange(AUDIO_SAMPLES, dtype=np.int64)
    return ((doc_id * AUD_MULT + t * AUD_STEP) % 65536 - 32768).astype(np.int16)


def media_table_from_documents(docs: pa.Table) -> pa.Table:
    """Deterministic media table from the documents fixture: one REAL binary
    payload per doc — BMP image, PCM WAV, or FRV1 video by ``doc_id % 3``.

    The content formulas are closed-form in doc_id so a SQL oracle can
    recompute the decoded features without parsing binaries."""
    doc_ids = docs["doc_id"].to_numpy(zero_copy_only=False)
    kinds, payloads, mimes = [], [], []
    kind_names = ["image", "audio", "video"]
    kind_mimes = ["image/bmp", "audio/wav", "video/x-frv1"]
    for d in doc_ids:
        d = int(d)
        k = d % 3
        kinds.append(kind_names[k])
        mimes.append(kind_mimes[k])
        if k == 0:
            payloads.append(codecs.encode_bmp(_synth_image(d)))
        elif k == 1:
            payloads.append(codecs.encode_wav(_synth_audio(d), AUDIO_RATE))
        else:
            payloads.append(
                codecs.encode_frames(
                    [_synth_image(d, f) for f in range(VIDEO_FRAMES)]
                )
            )
    return pa.Table.from_arrays(
        [
            pa.array(doc_ids, type=pa.int64()),
            pa.array(kinds, type=pa.string()),
            pa.array(payloads, type=pa.binary()),
            pa.array(mimes, type=pa.string()),
            pa.array(["{}"] * len(doc_ids), type=pa.string()),
        ],
        schema=MEDIA_SCHEMA,
    )


def _image_values(payload: bytes) -> tuple[np.ndarray, str]:
    img = codecs.decode_bmp(payload)
    return img.reshape(-1).astype(np.float64), f"{img.shape[0]}x{img.shape[1]}"


def _audio_values(payload: bytes) -> tuple[np.ndarray, str]:
    samples, rate, _ch = codecs.decode_wav(payload)
    return samples.astype(np.float64), f"{len(samples)}@{rate}Hz"


def _video_values(payload: bytes) -> tuple[np.ndarray, str]:
    frames = codecs.decode_all_frames(payload)
    vals = np.concatenate([f.reshape(-1) for f in frames]).astype(np.float64)
    return vals, f"{len(frames)}x{frames[0].shape[0]}x{frames[0].shape[1]}"


_DECODE = {"image": _image_values, "audio": _audio_values, "video": _video_values}

# position weights of the video-frame pixel fingerprint
_FRAME_WEIGHTS = np.arange(1, IMG_H * IMG_W * 3 + 1, dtype=np.int64)


def _frame_fingerprint(frame: np.ndarray) -> int:
    px = frame.reshape(-1).astype(np.int64)
    return int((px * _FRAME_WEIGHTS[: len(px)]).sum() % 0x7FFF_FFFF_FFFF_FFFF)


def media_features_batch(batch: pa.Table) -> pa.Table:
    """Decode each payload with the real codec for its kind and emit
    (mean, std, shape) of the decoded values."""
    kinds = batch["kind"].to_pylist()
    payloads = batch["payload"].to_pylist()
    means, stds, shapes = [], [], []
    for kind, p in zip(kinds, payloads):
        try:
            vals, shape = _DECODE[kind](p or b"")
        except KeyError:
            raise ValueError(f"unknown media kind {kind!r}") from None
        means.append(float(vals.mean()))
        stds.append(float(vals.std()))
        shapes.append(shape)
    return pa.table(
        {
            "media_id": batch["media_id"],
            "kind": batch["kind"],
            "px_mean": pa.array(means, type=pa.float64()),
            "px_std": pa.array(stds, type=pa.float64()),
            "shape": pa.array(shapes, type=pa.string()),
        }
    )


def resize_batch(batch: pa.Table, *, out_h: int, out_w: int) -> pa.Table:
    """Decode each BMP image, resize to ``(out_h, out_w)`` with
    nearest-neighbor sampling, re-encode as BMP.

    The sample map ``src_row = (dst_row * in_h) // out_h`` is exact
    integer arithmetic — deterministic across platforms and replayable in
    SQL (the oracle recomputes the sampled synth pixels directly), unlike
    interpolating filters whose float rounding is libm-dependent. Non-image
    rows are skipped (resize only has image semantics). Emits the resized
    payload plus (width, height, px_mean) so downstream stages can chain
    without re-decoding."""
    kinds = batch["kind"].to_pylist()
    ids = batch["media_id"].to_numpy(zero_copy_only=False)
    payloads = batch["payload"].to_pylist()
    out_id, out_payload, out_mean = [], [], []
    for mid, kind, p in zip(ids, kinds, payloads):
        if kind != "image":
            continue
        img = codecs.decode_bmp(p or b"")
        h, w = img.shape[0], img.shape[1]
        sy = (np.arange(out_h, dtype=np.int64) * h) // out_h
        sx = (np.arange(out_w, dtype=np.int64) * w) // out_w
        resized = img[sy][:, sx]
        out_id.append(int(mid))
        out_payload.append(codecs.encode_bmp(resized))
        out_mean.append(float(resized.astype(np.float64).mean()))
    n = len(out_id)
    return pa.table(
        {
            "media_id": pa.array(out_id, type=pa.int64()),
            "payload": pa.array(out_payload, type=pa.binary()),
            "width": pa.array([out_w] * n, type=pa.int32()),
            "height": pa.array([out_h] * n, type=pa.int32()),
            "px_mean": pa.array(out_mean, type=pa.float64()),
        }
    )


def sample_frames_batch(batch: pa.Table, *, frames_per_item: int) -> pa.Table:
    """Parse each FRV1 video container, decode up to N evenly-spaced real
    frames, fingerprint each frame's pixels (1→N row expansion inside the
    batch fn). Non-video rows are skipped."""
    ids = batch["media_id"].to_numpy(zero_copy_only=False)
    kinds = batch["kind"].to_pylist()
    payloads = batch["payload"].to_pylist()
    out_id, out_frame, out_fp = [], [], []
    for mid, kind, p in zip(ids, kinds, payloads):
        if kind != "video":
            continue
        avail = codecs.frame_count(p)
        take = min(frames_per_item, avail)
        for f in range(take):
            frame = codecs.decode_frame(p, f * avail // take)
            out_id.append(int(mid))
            out_frame.append(f)
            out_fp.append(_frame_fingerprint(frame))
    return pa.table(
        {
            "media_id": pa.array(out_id, type=pa.int64()),
            "frame_idx": pa.array(out_frame, type=pa.int32()),
            "frame_fingerprint": pa.array(out_fp, type=pa.int64()),
        }
    )


def resample_batch(batch: pa.Table, *, factor: int) -> pa.Table:
    """Decode each PCM-16 WAV, decimate by an integer ``factor`` (keep
    samples 0, factor, 2·factor, … — exact integer index arithmetic,
    deterministic and SQL-replayable, unlike interpolating/filtering
    resamplers whose float rounding is libm-dependent), re-encode as WAV
    at rate // factor. Non-audio rows are skipped. Emits the resampled
    payload plus (n_samples, rate, amp_mean) so downstream stages can
    chain without re-decoding."""
    kinds = batch["kind"].to_pylist()
    ids = batch["media_id"].to_numpy(zero_copy_only=False)
    payloads = batch["payload"].to_pylist()
    out_id, out_payload, out_n, out_rate, out_mean = [], [], [], [], []
    for mid, kind, p in zip(ids, kinds, payloads):
        if kind != "audio":
            continue
        samples, rate, _ch = codecs.decode_wav(p or b"")
        dec = samples[::factor]
        new_rate = max(1, rate // factor)
        out_id.append(int(mid))
        out_payload.append(codecs.encode_wav(dec, new_rate))
        out_n.append(int(len(dec)))
        out_rate.append(new_rate)
        out_mean.append(float(dec.astype(np.float64).mean()))
    return pa.table(
        {
            "media_id": pa.array(out_id, type=pa.int64()),
            "payload": pa.array(out_payload, type=pa.binary()),
            "n_samples": pa.array(out_n, type=pa.int64()),
            "rate": pa.array(out_rate, type=pa.int64()),
            "amp_mean": pa.array(out_mean, type=pa.float64()),
        }
    )


def media_features(ds, *, batch_size: int = 128):
    return ds.map_batches(
        media_features_batch, batch_format="pyarrow", batch_size=batch_size
    )


def resize_images(ds, *, out_h: int = 4, out_w: int = 4, batch_size: int = 128):
    if out_h < 1 or out_w < 1:
        raise ValueError("output dims must be >= 1")
    return ds.map_batches(
        resize_batch,
        fn_kwargs={"out_h": int(out_h), "out_w": int(out_w)},
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def sample_frames(ds, *, frames_per_item: int = 4, batch_size: int = 128):
    return ds.map_batches(
        sample_frames_batch,
        fn_kwargs={"frames_per_item": frames_per_item},
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def resample_audio(ds, *, factor: int = 4, batch_size: int = 128):
    if int(factor) < 1:
        raise ValueError("factor must be >= 1")
    return ds.map_batches(
        resample_batch,
        fn_kwargs={"factor": int(factor)},
        batch_format="pyarrow",
        batch_size=batch_size,
    )
