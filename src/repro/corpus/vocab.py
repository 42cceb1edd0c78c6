"""Gazetteers and lexical resources for the synthetic business-news web.

The paper's ETAP system ran over the live Web and relied on a proprietary
named-entity annotator backed by dictionaries of company, person and place
names.  This module provides the equivalent lexical substrate for the
reproduction: curated gazetteers of organizations, people, places,
designations, products and measurement units, plus the verb/adjective
inventories the article templates draw from.

Both the document generator (:mod:`repro.corpus.generator`) and the
named-entity recognizer (:mod:`repro.text.ner`) are built on these lists.
The NER may deliberately be given only a *subset* of the gazetteers (see
``ner.NerConfig.gazetteer_coverage``) so that, as on the real Web,
annotation is imperfect and the downstream classifier must tolerate
annotation errors.
"""

from __future__ import annotations

import itertools

# ---------------------------------------------------------------------------
# Organizations
# ---------------------------------------------------------------------------

#: Single-token company stems used to build multi-word organization names.
_ORG_STEMS = [
    "Acme", "Globex", "Initech", "Umbra", "Vandelay", "Hooli", "Stark",
    "Wayne", "Wonka", "Tyrell", "Cyberdyne", "Aperture", "BlueSky",
    "RedRock", "SilverLake", "IronGate", "NorthStar", "Pinnacle", "Vertex",
    "Quantum", "Nimbus", "Zenith", "Apex", "Orion", "Helios", "Atlas",
    "Titan", "Nova", "Pulsar", "Vortex", "Cascade", "Summit", "Beacon",
    "Catalyst", "Meridian", "Paragon", "Sterling", "Crestwood", "Lakeshore",
    "Brightline", "Clearwater", "Evergreen", "Fairfield", "Granite",
    "Harborview", "Keystone", "Longbridge", "Maplewood", "Oakmont",
    "Riverbend", "Sandstone", "Thornfield", "Westbrook", "Youngston",
    "Amberly", "Birchwood", "Coralline", "Duskwood", "Eastgate", "Foxglove",
    "Goldcrest", "Hawthorne", "Ivyridge", "Juniper", "Kingsley", "Larkspur",
]

#: Suffixes that mark a token sequence as a company name.
ORG_SUFFIXES = [
    "Inc", "Corp", "Ltd", "LLC", "Group", "Holdings", "Systems",
    "Technologies", "Solutions", "Partners", "Industries", "Networks",
    "Software", "Labs", "Enterprises", "Capital", "Consulting",
]

#: Sector words optionally inserted between stem and suffix.
_ORG_SECTORS = [
    "Data", "Micro", "Tele", "Steel", "Energy", "Media", "Retail",
    "Pharma", "Auto", "Aero", "Agro", "Bio", "Cloud", "Digital",
]


def build_org_names(limit: int = 400) -> list[str]:
    """Deterministically enumerate multi-word organization names.

    The cross product stem x (sector?) x suffix is walked in a fixed order,
    so the gazetteer is stable across runs and processes.
    """
    names = []
    for stem, suffix in itertools.product(_ORG_STEMS, ORG_SUFFIXES):
        names.append(f"{stem} {suffix}")
        if len(names) >= limit:
            return names[:limit]
    return names[:limit]


def build_org_names_extended(limit: int = 300) -> list[str]:
    """Organization names with a sector word, e.g. ``Acme Data Systems``."""
    names = []
    for stem, sector in itertools.product(_ORG_STEMS, _ORG_SECTORS):
        suffix = ORG_SUFFIXES[(len(names) * 7) % len(ORG_SUFFIXES)]
        names.append(f"{stem} {sector} {suffix}")
        if len(names) >= limit:
            return names
    return names


ORGANIZATIONS: list[str] = build_org_names(400) + build_org_names_extended(300)

# ---------------------------------------------------------------------------
# People
# ---------------------------------------------------------------------------

FIRST_NAMES = [
    "James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael",
    "Linda", "David", "Elizabeth", "William", "Barbara", "Richard", "Susan",
    "Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen", "Daniel",
    "Nancy", "Matthew", "Lisa", "Anthony", "Margaret", "Mark", "Betty",
    "Paul", "Sandra", "Steven", "Ashley", "Andrew", "Dorothy", "Kenneth",
    "Kimberly", "George", "Emily", "Joshua", "Donna", "Kevin", "Michelle",
    "Brian", "Carol", "Edward", "Amanda", "Ronald", "Melissa", "Timothy",
    "Deborah", "Arvind", "Priya", "Wei", "Mei", "Hiroshi", "Yuki",
    "Lars", "Ingrid", "Pierre", "Amelie", "Carlos", "Lucia", "Ahmed",
    "Fatima", "Olu", "Amara", "Dmitri", "Svetlana", "Rajesh", "Ananya",
]

LAST_NAMES = [
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
    "Davis", "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez",
    "Wilson", "Anderson", "Thompson", "Taylor", "Moore", "Jackson",
    "Martin", "Lee", "Perez", "White", "Harris", "Sanchez", "Clark",
    "Ramirez", "Lewis", "Robinson", "Walker", "Young", "Allen", "King",
    "Wright", "Scott", "Torres", "Nguyen", "Hill", "Flores", "Green",
    "Adams", "Nelson", "Baker", "Hall", "Rivera", "Campbell", "Mitchell",
    "Carter", "Roberts", "Chen", "Kumar", "Patel", "Sato", "Tanaka",
    "Mueller", "Schmidt", "Dubois", "Rossi", "Ivanov", "Petrov", "Okafor",
    "Andersen", "Larsen", "Kowalski", "Novak", "Silva", "Santos",
]

HONORIFICS = ["Mr.", "Ms.", "Mrs.", "Dr."]


def build_person_names(limit: int = 800) -> list[str]:
    """Deterministically enumerate ``First Last`` person names."""
    names = []
    for i, (first, last) in enumerate(
        itertools.product(FIRST_NAMES, LAST_NAMES)
    ):
        if i % 3 == 0:  # thin the cross product for variety per position
            names.append(f"{first} {last}")
        if len(names) >= limit:
            return names
    return names


PEOPLE: list[str] = build_person_names(800)

# ---------------------------------------------------------------------------
# Places
# ---------------------------------------------------------------------------

PLACES = [
    "New York", "London", "Tokyo", "Paris", "Berlin", "Mumbai", "Bangalore",
    "San Francisco", "Seattle", "Boston", "Chicago", "Austin", "Toronto",
    "Sydney", "Singapore", "Hong Kong", "Shanghai", "Beijing", "Seoul",
    "Dublin", "Amsterdam", "Zurich", "Stockholm", "Helsinki", "Oslo",
    "Madrid", "Barcelona", "Milan", "Rome", "Vienna", "Prague", "Warsaw",
    "Dubai", "Tel Aviv", "Sao Paulo", "Mexico City", "Buenos Aires",
    "Johannesburg", "Cairo", "Nairobi", "Washington", "Atlanta", "Dallas",
    "Denver", "Phoenix", "Portland", "Vancouver", "Montreal", "Munich",
    "Frankfurt", "Geneva", "Brussels", "Copenhagen", "Lisbon", "Athens",
    "Bangkok", "Jakarta", "Manila", "Kuala Lumpur", "Taipei", "Osaka",
    "Hyderabad", "Chennai", "Pune", "New Delhi", "Edinburgh", "Manchester",
]

# ---------------------------------------------------------------------------
# Designations (executive titles)
# ---------------------------------------------------------------------------

DESIGNATIONS = [
    "CEO", "CTO", "CFO", "COO", "CIO", "CMO", "President",
    "Vice President", "Chairman", "Managing Director", "General Manager",
    "Chief Executive Officer", "Chief Technology Officer",
    "Chief Financial Officer", "Chief Operating Officer",
    "Executive Director", "Senior Vice President", "Director",
    "Head of Sales", "Head of Engineering", "Chief Scientist",
]

# ---------------------------------------------------------------------------
# Products and objects
# ---------------------------------------------------------------------------

PRODUCTS = [
    "CloudSuite", "DataForge", "NetPilot", "StorMax", "SecureVault",
    "FlowEngine", "InsightHub", "StreamLine", "CoreStack", "EdgeRunner",
    "StackBuilder", "QueryMaster", "MeshLink", "PulseBoard", "GridWorks",
    "VisionKit", "AutoScale", "DeepIndex", "FastTrack", "OmniSync",
    "ProxyWave", "RapidDeploy", "SignalPath", "TrueNorth", "UnityBase",
]

OBJECTS = [
    "database", "server", "mainframe", "router", "firewall", "laptop",
    "workstation", "storage array", "switch", "middleware", "platform",
    "application suite", "data center", "call center", "supply chain",
]

# ---------------------------------------------------------------------------
# Units of measurement (LNGTH in the paper's tag set)
# ---------------------------------------------------------------------------

MEASUREMENT_UNITS = [
    "meters", "kilometers", "miles", "feet", "tons", "kilograms", "pounds",
    "gigabytes", "terabytes", "petabytes", "megawatts", "gigahertz",
    "square feet", "barrels", "units", "seats", "nodes",
]

CURRENCY_UNITS = ["million", "billion", "thousand", "crore", "lakh"]
CURRENCY_SYMBOLS = ["$", "USD", "EUR", "GBP", "Rs."]

MONTHS = [
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
]

WEEKDAYS = [
    "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday",
    "Sunday",
]

QUARTERS = [
    "first quarter", "second quarter", "third quarter", "fourth quarter",
    "Q1", "Q2", "Q3", "Q4",
]

# ---------------------------------------------------------------------------
# Event verb/adjective inventories used by the templates
# ---------------------------------------------------------------------------

ACQUISITION_VERBS = [
    "acquired", "acquires", "will acquire", "plans to acquire",
    "agreed to acquire", "completed the acquisition of", "bought",
    "is buying", "agreed to buy", "will merge with", "merged with",
    "announced a merger with", "took over", "is taking over",
    "signed a definitive agreement to acquire", "snapped up",
]

APPOINTMENT_VERBS = [
    "appointed", "named", "hired", "promoted", "has appointed",
    "announced the appointment of", "elevated", "tapped", "recruited",
    "selected", "brought in", "has named", "welcomed",
]

DEPARTURE_VERBS = [
    "resigned", "stepped down", "retired", "departed", "was ousted",
    "left the company", "announced his resignation",
    "announced her resignation",
]

GROWTH_VERBS = [
    "reported", "posted", "announced", "recorded", "registered",
    "delivered", "achieved", "unveiled", "disclosed",
]

GROWTH_NOUNS = [
    "revenue growth", "revenue", "profit", "net income", "earnings",
    "quarterly revenue", "annual revenue", "sales", "turnover",
    "operating income",
]

FUNDING_VERBS = [
    "raised", "has raised", "secured", "closed", "announced",
    "completed", "landed", "banked", "pulled in", "locked in",
]

FUNDING_ROUND_NAMES = [
    "seed", "Series A", "Series B", "Series C", "Series D",
    "growth", "bridge", "mezzanine",
]

INVESTOR_NAMES = [
    "Meridian Ventures", "Blue Harbor Capital", "Northgate Partners",
    "Ridgeline Growth Equity", "Cobalt Venture Partners",
    "Summit Crest Capital", "Ironwood Investments", "Vantage Point Fund",
    "Clearwater Growth Partners", "Atlas Horizon Capital",
]

LAYOFF_VERBS = [
    "will cut", "is cutting", "plans to eliminate", "will eliminate",
    "is laying off", "will lay off", "announced it will shed",
    "is shedding", "will slash", "plans to cut",
]

LAYOFF_NOUNS = [
    "jobs", "positions", "roles", "staff positions", "employees",
]

POSITIVE_ORIENTATION_PHRASES = [
    "significant growth", "solid quarter", "record profits",
    "strong performance", "robust demand", "impressive gains",
    "stellar results", "healthy margins", "remarkable turnaround",
    "substantial increase",
]

NEGATIVE_ORIENTATION_PHRASES = [
    "severe losses", "sharp decline", "worst losses", "steep drop",
    "significant downturn", "disappointing results", "weak demand",
    "heavy losses", "dismal quarter", "substantial decrease",
]

NEUTRAL_BUSINESS_NOUNS = [
    "market", "industry", "sector", "strategy", "partnership", "contract",
    "product line", "workforce", "operations", "infrastructure",
    "portfolio", "roadmap", "initiative", "campaign", "division",
]

BACKGROUND_TOPICS = [
    "weather patterns", "local sports", "travel destinations",
    "restaurant reviews", "gardening tips", "movie releases",
    "music festivals", "health advice", "school events",
    "community fundraisers", "art exhibitions", "hiking trails",
    "cooking recipes", "book clubs", "photography workshops",
]
