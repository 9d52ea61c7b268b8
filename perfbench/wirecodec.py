"""
Microbenchmark of the live backend's DNS wire codec.

For every enum-reference candidate name (each dictionary prefix joined
with each registrable-domain target), the simulated internet's answer is
encoded as the reply a resolver would send: the question, then the CNAME
chain and the A records, with every owner and CNAME target written as a
compression pointer where an earlier name ends the same way. The timed
loops run ``transport.build_dns_query`` and ``transport.parse_dns_response``
over all of them; each parsed reply must give back the observation it was
encoded from.
"""

from __future__ import annotations

import struct
import time
from pathlib import Path
from statistics import median

from dvahunter.core import Rcode
from dvahunter.crawler import PrefixDictionary
from dvahunter.psl import PublicSuffixList
from dvahunter.simnet import SimulatedInternet, load_scenario
from dvahunter.transport import build_dns_query, parse_dns_response

_RCODE = {Rcode.NOERROR: 0, Rcode.SERVFAIL: 2, Rcode.NXDOMAIN: 3}
QTYPE_A = 1
PASSES = 3  # timed passes over all names; the median is reported


class RoundTripMismatch(AssertionError):
    """A parsed reply did not reproduce the observation it encodes."""


class _NameWriter:
    """Writes names into a message, reusing earlier suffixes by pointer."""

    def __init__(self, buf: bytearray):
        self.buf = buf
        self.offsets: dict[str, int] = {}

    def write(self, name: str) -> None:
        labels = name.split(".")
        for i in range(len(labels)):
            suffix = ".".join(labels[i:])
            offset = self.offsets.get(suffix)
            if offset is not None:
                self.buf += struct.pack(">H", 0xC000 | offset)
                return
            if len(self.buf) < 0x3FFF:
                self.offsets[suffix] = len(self.buf)
            raw = labels[i].encode("ascii")
            self.buf += bytes([len(raw)]) + raw
        self.buf += b"\x00"


def encode_reply(qid: int, name: str, obs) -> tuple[bytes, list[tuple[str, int, str]]]:
    """The wire reply for ``obs`` and the answers it must parse back to."""
    chain = [str(c) for c in obs.cname_chain]
    expected: list[tuple[str, int, str]] = []
    owner = name
    for target in chain:
        expected.append((owner, 5, target))
        owner = target
    expected += [(owner, 1, ip) for ip in obs.a_records]

    buf = bytearray(struct.pack(">HHHHHH", qid, 0x8180 | _RCODE[obs.rcode], 1, len(expected), 0, 0))
    names = _NameWriter(buf)
    names.write(name)
    buf += struct.pack(">HH", QTYPE_A, 1)
    for owner, rtype, rdata in expected:
        names.write(owner)
        buf += struct.pack(">HHIH", rtype, 1, 300, 0)
        length_at = len(buf) - 2
        if rtype == 5:
            names.write(rdata)
        else:
            buf += bytes(int(octet) for octet in rdata.split("."))
        struct.pack_into(">H", buf, length_at, len(buf) - length_at - 2)
    return bytes(buf), expected


def candidate_names(targets_path, dictionary_path, suffixes_path) -> list[str]:
    psl = PublicSuffixList.load(suffixes_path)
    dictionary = PrefixDictionary.load(dictionary_path)
    slds = []
    for raw in Path(targets_path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip().lower()
        if line and psl.registrable_domain(line) == line:
            slds.append(line)
    return [f"{prefix}.{sld}" for sld in sorted(slds) for prefix in dictionary.prefixes]


def run(scenario_path, targets_path, dictionary_path, suffixes_path, db) -> dict[str, float]:
    """Median microseconds per call of query building and reply parsing
    over ``PASSES`` timed passes, after the round-trip check."""
    net = SimulatedInternet(load_scenario(scenario_path), db)
    names = candidate_names(targets_path, dictionary_path, suffixes_path)
    replies = []
    answers_total = 0
    for qid, name in enumerate(names):
        obs = net.serve_dns(name)
        reply, expected = encode_reply(qid & 0xFFFF, name, obs)
        query = build_dns_query(name, QTYPE_A, qid & 0xFFFF)
        if reply[12:len(query)] != query[12:]:
            raise RoundTripMismatch(f"{name}: query question differs from the encoded reply's")
        rcode, answers = parse_dns_response(reply)
        if rcode != _RCODE[obs.rcode] or answers != expected:
            raise RoundTripMismatch(f"{name}: parsed {rcode}, {answers}; encoded {expected}")
        replies.append(reply)
        answers_total += len(answers)

    build_us, parse_us = [], []
    for _ in range(PASSES):
        started = time.perf_counter()
        for qid, name in enumerate(names):
            build_dns_query(name, QTYPE_A, qid & 0xFFFF)
        build_us.append((time.perf_counter() - started) / len(names) * 1e6)
        started = time.perf_counter()
        for reply in replies:
            parse_dns_response(reply)
        parse_us.append((time.perf_counter() - started) / len(replies) * 1e6)
    return {
        "transport.build_dns_query.us_per_call": median(build_us),
        "transport.parse_dns_response.us_per_call": median(parse_us),
        "wirecodec.names": len(names),
        "wirecodec.answers": answers_total,
    }
