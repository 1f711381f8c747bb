"""Shrinkability verdicts with certificates, for the classic examples.

Every verdict carries a certificate that is re-checked from the raw
sequence by the certificate verifier; tampering with any certified value
is detected.

Run:  python3 demos/shrinking_verdicts.py
"""

import dataclasses
import json

from toroshrink import (
    GapSequence,
    GeneratorSequence,
    PeriodicSequence,
    ancel_starbird,
    decide,
    parse_poly,
    verify_certificate,
)


def show(title, verdict):
    print(f"--- {title}")
    print(f"    verdict:   {verdict.outcome}   (criterion: {verdict.criterion})")
    print(f"    certificate: {json.dumps(verdict.certificate, sort_keys=True)[:120]}...")
    if verdict.corroborating:
        agrees = ", ".join(c for c, _ in verdict.corroborating)
        print(f"    corroborated by: {agrees}")
    print(f"    certificate re-check: {verify_certificate(verdict)}")
    print()


print("=" * 72)
print("1. Pure sequences: the ratio n/(2m) decides")
print("=" * 72)
show(
    "every stage a (2,1) chain (tau product 1)", decide(PeriodicSequence(((2, 1),)))
)
show("every stage a (1,1) chain (tau product 1/2)", decide(PeriodicSequence(((1, 1),))))
show("every stage a (2,2) chain (tau product 1/2)", decide(PeriodicSequence(((2, 2),))))

print("=" * 72)
print("2. Mixed (2,1)/(1,1) sequences: gaps between the doubling stages")
print("=" * 72)
show("one chain stage between doublings (gaps 1)", ancel_starbird(GapSequence.periodic([1])))
show("gaps growing like 2^i", ancel_starbird(GapSequence.two_pow()))
show("gaps growing like i", ancel_starbird(GapSequence.from_poly("i")))

print("=" * 72)
print("3. Sequences beyond the series criteria")
print("=" * 72)
ex55 = GeneratorSequence(n_poly=parse_poly("2*i"), m_poly=parse_poly("i+1"))
show("stage i a (2i, i+1) chain: strictly expanding", decide(ex55))

ex56 = GeneratorSequence(
    even_n=parse_poly("2*s^2"),
    even_m=parse_poly("1"),
    odd_n=parse_poly("2"),
    odd_m=parse_poly("(s+1)^2"),
)
show("alternating (2,(s+1)^2) and (2(s+1)^2,1): pairs telescope", decide(ex56))

print("=" * 72)
print("4. Certificates are falsifiable")
print("=" * 72)
verdict = decide(PeriodicSequence(((2, 1),)))
tampered_cert = dict(verdict.certificate)
tampered_cert["product"] = "2"
tampered = dataclasses.replace(verdict, certificate=tampered_cert)
print(f"original verdict re-checks:  {verify_certificate(verdict)}")
print(f"tampered product re-checks:  {verify_certificate(tampered)}")
