import hashlib
import random
import struct

import pytest

from dvahunter.core import (
    DnsObservation,
    DomainSyntaxError,
    DomainTooLongError,
    Evidence,
    HttpProbe,
    HttpResponseSummary,
    Rcode,
    Scheme,
    TransportFailure,
    Verdict,
    VerdictKind,
    derive_rng,
    parse_fqdn,
    sha1_body,
)


class TestParseFqdn:
    def test_case_normalization(self, psl):
        f = parse_fqdn("WWW.Example.COM")
        assert f.labels == ("www", "example", "com")
        assert psl.registrable_domain(f.name) == "example.com"

    def test_empty_label_rejected(self):
        with pytest.raises(DomainSyntaxError):
            parse_fqdn("a..b")

    def test_sld_follows_suffix_snapshot(self, psl):
        # hand-walk: longest listed suffix of cdn.foo.fastly.net is "net",
        # so the registrable domain is fastly.net
        assert psl.registrable_domain(parse_fqdn("cdn.foo.fastly.net").name) == "fastly.net"

    def test_bad_characters(self):
        for bad in ("under_score.com", "-lead.com", "trail-.com", "sp ace.com", "", "."):
            with pytest.raises(DomainSyntaxError):
                parse_fqdn(bad)

    @pytest.mark.parametrize("bad", ["a\n.com", "a.b\n.com", "a\n.b\n.com", "a\r.com"])
    def test_label_ending_in_a_line_break_is_illegal(self, bad):
        # a regular expression's "$" also matches before a final newline
        with pytest.raises(DomainSyntaxError, match="illegal label"):
            parse_fqdn(bad)

    @pytest.mark.parametrize("bad", ["Ka.com", "a.K.com", "café.com"])
    def test_non_ascii_name_is_refused(self, bad):
        # str.lower folds KELVIN SIGN into "k": checked after lowering, the
        # first two were taken for ka.com and a.k.com
        with pytest.raises(DomainSyntaxError, match="non-ASCII"):
            parse_fqdn(bad)

    def test_too_long(self):
        name = ".".join(["a" * 60] * 5)
        with pytest.raises(DomainTooLongError):
            parse_fqdn(name)

    def test_label_length_cap(self):
        parse_fqdn("a" * 63 + ".com")
        with pytest.raises(DomainSyntaxError):
            parse_fqdn("a" * 64 + ".com")

    def test_trailing_dot_and_numeric_labels(self):
        assert str(parse_fqdn("example.com.")) == "example.com"
        assert str(parse_fqdn("10.0.0.5")) == "10.0.0.5"

    def test_roundtrip_property(self):
        # parse(render(f)) == f over generated label sets
        rng = random.Random(1234)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
        for _ in range(300):
            labels = []
            for _ in range(rng.randint(1, 6)):
                size = rng.randint(1, 12)
                label = "".join(rng.choice(alphabet) for _ in range(size))
                if size > 2 and rng.random() < 0.3:
                    label = label[0] + "-" + label[2:]
                labels.append(label)
            name = ".".join(labels)
            if len(name) > 253:
                continue
            parsed = parse_fqdn(name)
            assert parse_fqdn(str(parsed)) == parsed
            assert str(parsed) == name.lower()


class TestObservationAndProbe:
    def test_error_rcode_forbids_records(self):
        with pytest.raises(ValueError):
            DnsObservation(fqdn=parse_fqdn("x.com"), a_records=("1.2.3.4",), rcode=Rcode.NXDOMAIN)

    def test_http_scheme_rejects_sni(self):
        with pytest.raises(ValueError):
            HttpProbe(target_ip="1.2.3.4", scheme=Scheme.HTTP,
                      host_header=parse_fqdn("a.com"), sni=parse_fqdn("b.com"))

    def test_path_must_be_rooted(self):
        with pytest.raises(ValueError):
            HttpProbe(target_ip="1.2.3.4", scheme=Scheme.HTTP, host_header=parse_fqdn("a.com"), path="img.png")

    def test_response_exactly_one_of_status_failure(self):
        with pytest.raises(ValueError):
            HttpResponseSummary(status=200, failure=TransportFailure.TIMEOUT)
        with pytest.raises(ValueError):
            HttpResponseSummary()

    def test_excerpt_capped_at_4096(self):
        summary = HttpResponseSummary.from_body(200, b"x" * 10000)
        assert len(summary.body_excerpt) == 4096
        assert summary.body_hash == sha1_body(b"x" * 10000)

    def test_header_lookup_case_insensitive(self):
        summary = HttpResponseSummary.from_body(200, b"", [("X-Cache-Lookup", "Return Directly")])
        assert summary.header("x-cache-lookup") == "Return Directly"
        assert summary.header("missing") is None


class TestVerdict:
    def test_vulnerable_requires_evidence(self):
        with pytest.raises(ValueError):
            Verdict(VerdictKind.VULNERABLE)

    def test_vulnerable_rejects_failed_probes(self):
        failed = Evidence("probe", "timed out", response=HttpResponseSummary.failed(TransportFailure.TIMEOUT))
        with pytest.raises(ValueError):
            Verdict.vulnerable([failed])
        # the same evidence is fine on the other kinds
        assert Verdict.inconclusive([failed]).kind is VerdictKind.INCONCLUSIVE


# -- SHA1 --------------------------------------------------------------------
# Independent oracle: a from-scratch SHA1 so the hashlib-backed path is
# checked against a second implementation, not itself.

def _rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & 0xFFFFFFFF


def reference_sha1(message: bytes) -> bytes:
    h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
    length = len(message) * 8
    message += b"\x80"
    message += b"\x00" * ((56 - len(message) % 64) % 64)
    message += struct.pack(">Q", length)
    for block_start in range(0, len(message), 64):
        w = list(struct.unpack(">16I", message[block_start:block_start + 64]))
        for i in range(16, 80):
            w.append(_rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1))
        a, b, c, d, e = h
        for i in range(80):
            if i < 20:
                f, k = (b & c) | (~b & d), 0x5A827999
            elif i < 40:
                f, k = b ^ c ^ d, 0x6ED9EBA1
            elif i < 60:
                f, k = (b & c) | (b & d) | (c & d), 0x8F1BBCDC
            else:
                f, k = b ^ c ^ d, 0xCA62C1D6
            a, b, c, d, e = (
                (_rotl(a, 5) + f + e + k + w[i]) & 0xFFFFFFFF, a, _rotl(b, 30), c, d,
            )
        h = [(x + y) & 0xFFFFFFFF for x, y in zip(h, (a, b, c, d, e))]
    return struct.pack(">5I", *h)


class TestSha1:
    def test_fips_vectors(self):
        assert sha1_body(b"").hex() == "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        assert sha1_body(b"abc").hex() == "a9993e364706816aba3e25717850c26c9cd0d89d"
        assert (
            sha1_body(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex()
            == "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        )

    def test_million_zero_bytes_against_independent_oracle(self):
        blob = b"\x00" * (1 << 20)
        assert sha1_body(blob) == reference_sha1(blob)

    def test_oracle_agrees_on_assorted_inputs(self):
        rng = random.Random(99)
        for _ in range(40):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300)))
            assert sha1_body(data) == reference_sha1(data) == hashlib.sha1(data).digest()


class TestDeriveRng:
    def test_scoped_streams_are_stable_and_independent(self):
        a1 = derive_rng(7, "x", "p").random()
        a2 = derive_rng(7, "x", "p").random()
        b = derive_rng(7, "x", "q").random()
        c = derive_rng(8, "x", "p").random()
        assert a1 == a2
        assert a1 != b
        assert a1 != c
