"""The illicit.jsonl value built by hand, for tests that start after filter."""


def illicit_of(*entries):
    """{address: row} of (address, site, category) entries, each address
    merged across its entries and flagged "reviewed", in address order."""
    merged = {}
    for address, site, category in entries:
        sites, categories = merged.setdefault(address, (set(), set()))
        sites.add(site)
        categories.add(category.label)
    return {address: {"v": 1, "address": address, "sites": sorted(sites),
                      "categories": sorted(categories), "flags": ["reviewed"]}
            for address, (sites, categories) in sorted(merged.items())}
