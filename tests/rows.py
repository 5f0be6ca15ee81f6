"""Rows and sums built by hand, for test oracles that stay independent of the package."""


def illicit_of(*entries):
    """{address: row} of (address, site, category) entries, each address
    merged across its entries and flagged "reviewed", in address order."""
    merged = {}
    for address, site, category in entries:
        sites, categories = merged.setdefault(address, (set(), set()))
        sites.add(site)
        categories.add(category)
    return {address: {"v": 1, "address": address, "sites": sorted(sites),
                      "categories": sorted(categories), "flags": ["reviewed"]}
            for address, (sites, categories) in sorted(merged.items())}


def output_to(tx, address: str) -> int:
    """The satoshis `tx`'s outputs pay to `address`."""
    return sum(o.value for o in tx.outputs if o.address == address)


def input_from(tx, address: str) -> int:
    """The satoshis `tx`'s inputs take from `address`."""
    return sum(i.value for i in tx.inputs if i.address == address)
