#!/usr/bin/env bash
# End-to-end checks of an installed lenshf command: the golden hashes of
# table 1000, three analyze inputs that only isqrt or ECM split, and a
# certificate round trip through verify.  Run it after `pip install .`:
#   bash tests/smoke.sh
# It works in a new temporary directory, so the checkout's src/ is never
# imported; about 15 s on a 2-vCPU host.
set -e
cd "$(mktemp -d)"

echo "== table 1000 golden hash"
sha=$(lenshf table 1000 | sha256sum | cut -d' ' -f1)
echo "table 1000 sha256: $sha"
test "$sha" = cb2df1a381bfab86ea820f2998d1b6d18c0fed6d28fdca66f74a5ca14728eade

echo "== table 1000 --jsonl --summary golden hash"
sha=$(lenshf table 1000 --jsonl --summary | sha256sum | cut -d' ' -f1)
echo "table 1000 --jsonl --summary sha256: $sha"
test "$sha" = a53c6d2e7c7e29d691d451abb7f739d97fe385bf4abd92de76e2d53397d23c51

echo "== analyze a 59/61-bit semiprime that ECM splits"
out=$(timeout 10 lenshf analyze 1328285053965137273256077393041207969 500945596517612812943455832667575940)
echo "$out"
echo "$out" | grep -q "2 boundary components"

echo "== analyze the square of a 44-bit prime"
out=$(timeout 10 lenshf analyze 292563589178709934806477409 5)
echo "$out"
echo "$out" | grep -q "3 boundary components"

echo "== analyze a product of two 44-bit primes that ECM splits"
out=$(timeout 10 lenshf analyze 264662410149531076417229041 5)
echo "$out"
echo "$out" | grep -q "3 boundary components"

echo "== verify a certificate, its n = 5 padding (Bareiss) and a tampered copy"
lenshf analyze 197 45 --json > c.json && lenshf verify c.json
python -c 'from lenshf import certificate_from_json, certificate_to_json, pad, verify
c = certificate_from_json(open("c.json").read())
print(certificate_to_json(verify(c.lens, pad(pad(pad(c.witness))))))' > c5.json
grep -q '"n": "5"' c5.json && lenshf verify c5.json
sed 's/"det": "[^"]*"/"det": "7"/' c5.json > bad.json
rc=0; lenshf verify bad.json || rc=$?
test "$rc" = 1
echo "== all smoke checks passed"
